package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"dard"
	"dard/internal/trace"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// metricName is the grammar every metric and workload name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNameGrammar(t *testing.T) {
	for _, bad := range []string{"", "-lead", "has space", "slash/name", "ünïcode", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metricName accepts %q", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric %q breaks the name grammar [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload %q breaks the name grammar", w.name)
		}
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the binary reports from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, table %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], table %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	hasSetup := false
	for _, m := range f.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range f.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// quick shrinks a workload to test scale: the same engines, schedulers
// and fault model on a small fabric and a short arrival window.
func quick(w workloadDef) workloadDef {
	w.instances = min(w.instances, 2)
	w.setupReps = 2
	w.runReps = min(w.runReps, 2)
	sc := &w.scenario
	sc.Duration = min(sc.Duration, 1.5)
	sc.FileSizeMB = min(sc.FileSizeMB, 16)
	if sc.Engine == dard.EnginePacket {
		sc.FileSizeMB, sc.Duration = 2, 2
	}
	if sc.Topology.P > 8 {
		sc.Topology.P = 8
	}
	return w
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at quick scale in
// both modes and requires every metric BENCHMARK.json names, and a
// passing correctness verdict.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		w := quick(w)
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 3, seconds: 0.01, out: t.TempDir()}
			if err := os.MkdirAll(cfg.out+"/fingerprints", 0o755); err != nil {
				t.Fatal(err)
			}
			e2e, err := endToEndRun(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			layers, err := layerRun(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []result{e2e, layers} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
				}
			}
			for _, m := range f.EndToEnd {
				if got, ok := e2e.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s [%s] missing or mis-united: %+v", m.Name, m.Unit, got)
				} else if got.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			for _, m := range f.PerLayer {
				if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s [%s] missing or mis-united: %+v", m.Name, m.Unit, got)
				}
			}
			if len(e2e.Metrics) != len(f.EndToEnd) || len(layers.Metrics) != len(f.PerLayer) {
				t.Errorf("reported %d+%d metrics, BENCHMARK.json names %d+%d",
					len(e2e.Metrics), len(layers.Metrics), len(f.EndToEnd), len(f.PerLayer))
			}
		})
	}
}

// TestCountingTracerAgreesWithRecorder runs the same small scenarios
// into the counting tracer and into trace.Recorder.
func TestCountingTracerAgreesWithRecorder(t *testing.T) {
	for _, w := range workloads {
		w := quick(w)
		t.Run(w.name, func(t *testing.T) {
			sc := w.scenarios(5)[0]
			ct := newCountingTracer()
			rec := trace.NewRecorder(trace.RecorderOptions{})
			var reports []string
			for _, tr := range []trace.Tracer{ct, rec} {
				insts, err := setupAll([]dard.Scenario{sc}, nil, []trace.Tracer{tr})
				if err != nil {
					t.Fatal(err)
				}
				reps, _, err := runAll(insts, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, reportJSON(reps[0]))
			}
			if reports[0] != reports[1] {
				t.Error("the two traced runs report differently")
			}
			events := rec.Take().Events
			if len(events) == 0 {
				t.Fatal("recorder saw no events")
			}
			if !sameCounts(ct, events) {
				t.Errorf("counting tracer saw %v (total %d), recorder %d events", ct.events, ct.total(), len(events))
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestLastResult(t *testing.T) {
	out := "{\"env\":1}\n  metric 1 s\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n\n"
	r, err := lastResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 3 || r.Metrics["run_s"].Value != 1.5 {
		t.Errorf("parsed %+v", r)
	}
}

func TestSpanNesting(t *testing.T) {
	l := newSpanLog("t")
	_ = l.do("outer", func() error {
		_ = l.do("inner", func() error { return nil })
		return l.do("inner", func() error { return nil })
	})
	if len(l.spans) != 3 || l.spans[0].Parent != 0 || l.spans[1].Parent != 1 || l.spans[2].Parent != 1 {
		t.Fatalf("spans %+v", l.spans)
	}
	if got := len(l.durations("inner")); got != 2 {
		t.Errorf("durations(inner) has %d entries", got)
	}
	for _, s := range l.spans {
		if s.End < s.Start || s.RunID != "t" {
			t.Errorf("span %+v", s)
		}
	}
}

// TestCalibration checks that the calibration loop does the same work on
// every call and that sampling it leaves the Go heap alone.
func TestCalibration(t *testing.T) {
	mem := make([]uint64, 1<<12)
	a := calScatter(mem, 1000)
	clear(mem)
	if b := calScatter(mem, 1000); a != b {
		t.Errorf("calScatter from the same state returned %d, then %d", a, b)
	}
	queue, table := make([]uint64, 0, 64), make([]uint64, 256)
	if a, b := calCore(queue, table, 1000), calCore(queue, table, 1000); a != b {
		t.Errorf("calCore returned %d, then %d", a, b)
	}
	c := &calibrator{samples: make([]float64, 0, 4*calPerPoint)}
	allocs := testing.AllocsPerRun(2, func() {
		if err := c.sample(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sample allocated %v times", allocs)
	}
	if len(c.samples) != 3*calPerPoint || c.scale() <= 0 {
		t.Errorf("%d samples, scale %g", len(c.samples), c.scale())
	}
}
