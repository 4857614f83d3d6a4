package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports: host cost of set-up
// and run, and the simulated outcome every speed-up must leave exact.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms_per_flow", "ms/flow"},
	{"alloc_kb_per_flow", "KB/flow"},
	{"allocs_per_flow", "allocs/flow"},
	{"peak_rss_mb", "MB"},
	{"sim_mean_transfer_s", "sim_s"},
	{"sim_p90_transfer_s", "sim_s"},
	{"finished_frac", "fraction"},
}

// perLayer are the metrics a --trace 1 run reports, layer by layer. A
// layer that does not run in a workload reports zeros.
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"topology.build_alloc_mb", "MB"},
	{"topology.resolve_ns", "ns"},
	{"topology.resolve_allocs", "count"},
	{"topology.cpu_s", "s"},
	{"workload.generate_s", "s"},
	{"workload.flows", "count"},
	{"workload.cpu_s", "s"},
	{"flowsim.events", "count"},
	{"flowsim.recomputes", "count"},
	{"flowsim.components", "count"},
	{"flowsim.ns_per_event", "ns"},
	{"flowsim.cpu_s", "s"},
	{"dard.exchanges", "count"},
	{"dard.assemble_ns", "ns"},
	{"dard.assemble_allocs", "count"},
	{"dard.fold_ns", "ns"},
	{"dard.decide_ns", "ns"},
	{"dard.cpu_s", "s"},
	{"ctlmsg.serve_ns", "ns"},
	{"ctlmsg.serve_allocs", "count"},
	{"ctlmsg.reply_bytes", "bytes"},
	{"ctlmsg.channel_new_ns", "ns"},
	{"ctlmsg.exchange_ok_ratio", "fraction"},
	{"ctlmsg.cpu_s", "s"},
	{"simnet.kernel_ns", "ns"},
	{"simnet.kernel_allocs", "count"},
	{"simnet.packets", "count"},
	{"simnet.drops", "count"},
	{"simnet.cpu_s", "s"},
	{"tcp.retransmits", "count"},
	{"tcp.cpu_s", "s"},
	{"psim.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"runtime.bg_cpu_s", "s"},
	{"runtime.profiled_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace.events", "count"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.jsonl_mb", "MB"},
	{"trace.overhead_frac", "fraction"},
	{"snap.snapshot_mb", "MB"},
	{"snap.snapshot_s", "s"},
	{"snap.resume_s", "s"},
	{"sim.control_mb", "MB"},
	{"sim.path_switches", "count"},
}

// metricSet is a run's metrics, each named in a definition table.
type metricSet struct {
	defs map[string]string // name → unit
	m    map[string]metric
}

// newMetricSet starts a set over defs with every metric at zero, so a
// layer that does not run in a workload still reports.
func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: map[string]string{}, m: map[string]metric{}}
	for _, d := range defs {
		s.defs[d.name] = d.unit
		s.m[d.name] = metric{0, d.unit}
	}
	return s
}

// put sets a metric; naming one outside the table is a bug.
func (s *metricSet) put(name string, v float64) {
	unit, ok := s.defs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	s.m[name] = metric{v, unit}
}

// runAllWorkloads runs every workload, each in a fresh process of this
// binary, and prints their metrics as one table.
func runAllWorkloads(cfg config, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	results := make([]result, len(workloads))
	for i, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace], "--out", cfg.out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if results[i], err = lastResult(stdout); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	fmt.Fprintf(out, "%-26s", "metric")
	for _, w := range workloads {
		fmt.Fprintf(out, " %20s", w.name)
	}
	fmt.Fprintf(out, "  unit\n")
	for _, d := range defs {
		fmt.Fprintf(out, "%-26s", d.name)
		for _, r := range results {
			fmt.Fprintf(out, " %20.6g", r.Metrics[d.name].Value)
		}
		fmt.Fprintf(out, "  %s\n", d.unit)
	}
	fmt.Fprintf(out, "%-26s", "correct (failed/attempted)")
	for _, r := range results {
		fmt.Fprintf(out, " %20s", fmt.Sprintf("%v (%d/%d)", r.Correct, r.Failed, r.Attempted))
	}
	fmt.Fprintln(out)
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
