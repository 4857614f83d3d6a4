package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dard"
	"dard/internal/trace"
	"dard/internal/workload"
)

// setupInstance builds one scenario layer by layer, one span per layer
// call: the topology, the workload, then the engine and its controller.
func setupInstance(sc dard.Scenario, spans *spanLog, tr trace.Tracer) (*instance, error) {
	in := &instance{sc: sc}
	var layout *workload.Layout
	err := spans.do("topology.build", func() error {
		var err error
		in.net, layout, err = buildTopology(sc)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	err = spans.do("workload.generate", func() error {
		var err error
		in.flows, err = generate(sc, layout)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if err := spans.do("engine.new", func() error { return in.newEngine(tr) }); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return in, nil
}

// setupAll builds every instance of a run; tracers, when non-nil, holds
// one tracer per instance.
func setupAll(scs []dard.Scenario, spans *spanLog, tracers []trace.Tracer) ([]*instance, error) {
	out := make([]*instance, len(scs))
	err := spans.do("setup", func() error {
		for i, sc := range scs {
			var tr trace.Tracer
			if tracers != nil {
				tr = tracers[i]
			}
			in, err := setupInstance(sc, spans, tr)
			if err != nil {
				return err
			}
			out[i] = in
		}
		return nil
	})
	return out, err
}

// runAll runs every instance to completion and returns the reports and
// each instance's run time. between, when non-nil, is called between
// instances, outside their times.
func runAll(insts []*instance, spans *spanLog, between func() error) ([]*dard.Report, []float64, error) {
	reps := make([]*dard.Report, len(insts))
	times := make([]float64, len(insts))
	err := spans.do("run", func() error {
		for i, in := range insts {
			if i > 0 && between != nil {
				if err := between(); err != nil {
					return err
				}
			}
			t := time.Now()
			var err error
			if reps[i], err = in.runEngine(); err != nil {
				return err
			}
			times[i] = time.Since(t).Seconds()
		}
		return nil
	})
	return reps, times, err
}

// pass is one measured round over a run's instances.
type pass struct {
	setupS    float64   // one set-up of every instance: the median of up to setupGroups group means
	runS      []float64 // each run of every instance to its final report
	firstRunS float64   // the first instance's share of the first run
	allocB    uint64    // heap bytes allocated while running
	mallocs   uint64    // heap allocations while running
	gcs       uint32    // GC cycles while running
	peakRSSMB float64   // the process's peak RSS during the pass
	counts    engineCounts
	// firstEvents is the first instance's flow-engine event count.
	firstEvents int64
	out         outcome
	// reruns are the outcomes of the runs after the first.
	reruns []outcome
	// Per-phase CPU profiles, when profiling.
	setupProf, runProf []byte
}

// passOptions configure measurePasses.
type passOptions struct {
	seconds float64     // keep starting passes while one more fits
	spans   *spanLog    // nil: no spans
	profile bool        // take a CPU profile of each phase
	cal     *calibrator // sampled before, between and after the timed phases
}

// measurePasses repeats set-up and run over the run's instances for about
// opts.seconds, at least once. The heap is collected before each timed
// phase, outside its timer, so no phase pays for the garbage of the one
// before. The calibrator is sampled before each pass, between set-up and
// run, between instances and after the last pass, so its samples spread
// over the whole measurement.
func measurePasses(w workloadDef, scs []dard.Scenario, opts passOptions) ([]pass, error) {
	start := time.Now()
	var passes []pass
	var last time.Duration
	for len(passes) == 0 || (time.Since(start)+last).Seconds() <= opts.seconds {
		t := time.Now()
		p, err := onePass(w, scs, opts)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		last = time.Since(t)
	}
	if err := opts.cal.sample(); err != nil {
		return nil, err
	}
	return passes, nil
}

// setupGroups is how many setup_s samples one pass takes at most.
const setupGroups = 5

func onePass(w workloadDef, scs []dard.Scenario, opts passOptions) (pass, error) {
	var p pass
	var insts []*instance
	// calibrate samples the calibrator inside the pass without counting
	// its memory in the pass's peak RSS: the peak so far is kept, and the
	// peak window starts again once the calibrator has unmapped its state.
	calibrate := func() error {
		if opts.cal == nil {
			return nil
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		p.peakRSSMB = max(p.peakRSSMB, peak)
		if err := opts.cal.sample(); err != nil {
			return err
		}
		resetPeakRSS()
		return nil
	}
	if err := opts.cal.sample(); err != nil {
		return p, err
	}
	runtime.GC()
	resetPeakRSS()
	stop, err := startProfile(opts.profile, &p.setupProf)
	if err != nil {
		return p, err
	}
	// The set-ups are timed in up to setupGroups groups of back-to-back
	// repetitions. A group's sample is its mean, garbage collection
	// included, and the pass reports the median sample, which one
	// preempted group cannot move.
	groups := min(setupGroups, w.setupReps)
	samples := make([]float64, groups)
	for g, r := 0, 0; g < groups; g++ {
		n := (g+1)*w.setupReps/groups - g*w.setupReps/groups
		t := time.Now()
		for range n {
			// Only the last repetition's spans are kept, so span counts
			// do not depend on setupReps.
			var spans *spanLog
			if r == w.setupReps-1 {
				spans = opts.spans
			}
			insts, err = setupAll(scs, spans, nil)
			if err != nil {
				stop()
				return p, err
			}
			r++
		}
		samples[g] = time.Since(t).Seconds() / float64(n)
	}
	p.setupS = median(samples)
	stop()

	if err := calibrate(); err != nil {
		return p, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if stop, err = startProfile(opts.profile, &p.runProf); err != nil {
		return p, err
	}
	reps, times, err := runAll(insts, opts.spans, calibrate)
	stop()
	if err != nil {
		return p, err
	}
	p.runS = append(p.runS, sum(times))
	runtime.ReadMemStats(&m1)
	peak, err := peakRSSMB()
	if err != nil {
		return p, err
	}
	p.peakRSSMB = max(p.peakRSSMB, peak)
	p.out, p.firstRunS = summarize(reps), times[0]
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcs = m1.NumGC - m0.NumGC
	for _, in := range insts {
		p.counts.add(in.counts())
	}
	p.firstEvents = insts[0].counts().events

	// Run again on fresh engines over the same topologies and flows,
	// whose construction is not timed: a workload whose set-up dwarfs its
	// run gets several run samples per set-up. Only the first run is
	// profiled and spanned.
	for r := 1; r < w.runReps; r++ {
		for _, in := range insts {
			if err := in.newEngine(nil); err != nil {
				return p, err
			}
		}
		if err := calibrate(); err != nil {
			return p, err
		}
		runtime.GC()
		reps, times, err := runAll(insts, nil, calibrate)
		if err != nil {
			return p, err
		}
		p.runS = append(p.runS, sum(times))
		p.reruns = append(p.reruns, summarize(reps))
	}
	peak, err = peakRSSMB()
	if err != nil {
		return p, err
	}
	p.peakRSSMB = max(p.peakRSSMB, peak)
	return p, nil
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// runTimes collects every run sample of every pass.
func runTimes(passes []pass) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, p.runS...)
	}
	return out
}

// startProfile starts a CPU profile into *dst when on, returning the
// function that stops it.
func startProfile(on bool, dst *[]byte) (func(), error) {
	if !on {
		return func() {}, nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		*dst = buf.Bytes()
	}, nil
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// field collects one quantity from every pass.
func field(passes []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// resetPeakRSS starts a new peak-RSS window, so each pass reports its
// own peak. Where the kernel refuses (it needs Linux 4.0), the peak
// stays process-wide, which is never below a pass's own.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the peak resident set size since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
