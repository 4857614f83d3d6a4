package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"dard/internal/topology"
)

func TestAttributeInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"map work charged to its caller", []string{
			"runtime.mapassign_fast32",
			"dard/internal/dard.(*Collector).assembleSync",
			"dard/internal/dard.(*monitor).assemble",
			"dard/internal/flowsim.(*Sim).RunContext",
		}, "dard"},
		{"malloc charged to the innermost module frame", []string{
			"runtime.mallocgc",
			"runtime.newobject",
			"dard/internal/simnet.(*Kernel).After",
			"dard/internal/tcp.(*Conn).sendSegment",
		}, "simnet"},
		{"engine callback into ctlmsg", []string{
			"dard/internal/flowsim.(*Sim).ElephantsOnLink",
			"dard/internal/ctlmsg.(*SwitchAgent).Serve",
		}, "flowsim"},
		{"closure", []string{"dard/internal/psim.(*Runtime).RunContext.func1"}, "psim"},
		{"facade", []string{"runtime.memmove", "dard.Scenario.RunContext"}, "facade"},
		{"generic instantiation", []string{"dard/internal/workload.pick[go.shape.int]"}, "workload"},
		{"type argument naming another package", []string{"slices.SortFunc[dard/internal/topology.NodeID]", "main.run"}, layerBench},
		{"background GC", []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerBackground},
		{"empty stack", nil, layerBackground},
		{"benchmark harness", []string{"runtime.GC", "main.onePass", "main.main"}, layerBench},
		{"module frame outranks the harness", []string{"dard/internal/topology.NewFatTree", "main.buildTopology"}, "topology"},
		{"other module with a similar prefix", []string{"dardx/internal/flowsim.F"}, layerBackground},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

// burnTopology builds fat-trees until d has passed, so a CPU profile
// taken meanwhile samples the topology layer.
func burnTopology(t *testing.T, d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		if _, err := topology.NewFatTree(topology.FatTreeConfig{P: 16}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCPUByLayerParsesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	burnTopology(t, 500*time.Millisecond)
	pprof.StopCPUProfile()
	by := map[string]float64{}
	if err := addCPUByLayer(by, buf.Bytes(), 1); err != nil {
		t.Fatal(err)
	}
	if by["topology"] <= 0 {
		t.Fatalf("no samples charged to topology: %v", by)
	}
	for l := range by {
		if l != "topology" && l != layerBackground && l != layerBench {
			t.Errorf("samples charged to %s, which the profiled code never entered: %v", l, by)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip input")
	}
}
