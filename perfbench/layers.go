package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"dard"
	"dard/internal/ctlmsg"
	idard "dard/internal/dard"
	"dard/internal/flowsim"
	"dard/internal/psim"
	"dard/internal/topology"
	"dard/internal/trace"
)

// cpuLayers are the layers whose CPU share the traced run reports.
var cpuLayers = []string{"topology", "workload", "flowsim", "dard", "ctlmsg", "simnet", "tcp", "psim"}

// microDur is how long each layer microcall loop runs at least.
const microDur = 100 * time.Millisecond

// layerRun is the --trace 1 run: profiled untraced passes, a traced run,
// a recorded run, and direct calls into each layer on mid-run state.
func layerRun(cfg config, w workloadDef) (result, error) {
	scs := w.scenarios(cfg.seed)
	runID := fmt.Sprintf("%s-seed%d", w.name, cfg.seed)
	spans := newSpanLog(runID)
	lr := &layerReport{metricSet: newMetricSet(perLayer)}

	// 1. Untraced passes under the CPU profiler.
	passes, err := measurePasses(w, scs, passOptions{seconds: cfg.seconds, spans: spans, profile: true})
	if err != nil {
		return result{}, err
	}
	ref := passes[0].out
	checkPasses(&lr.chk, passes)
	if err := lr.profile(passes, w.setupReps); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, runID+"-run.pprof"), passes[0].runProf, 0o644); err != nil {
		return result{}, err
	}
	untracedRunS := median(runTimes(passes))
	c := passes[0].counts
	lr.put("workload.flows", float64(ref.flows))
	lr.put("topology.build_s", median(spans.durations("topology.build")))
	lr.put("workload.generate_s", median(spans.durations("workload.generate")))
	lr.put("flowsim.events", float64(c.events))
	lr.put("flowsim.recomputes", float64(c.recomputes))
	lr.put("flowsim.components", float64(c.components))
	lr.put("flowsim.ns_per_event", nsPer(untracedRunS, c.events))
	lr.put("simnet.packets", float64(c.segments))
	lr.put("simnet.drops", float64(c.drops))
	lr.put("tcp.retransmits", float64(c.retransmits))
	lr.put("sim.control_mb", ref.controlBytes/(1<<20))
	lr.put("sim.path_switches", float64(ref.pathSwitches))
	if err := lr.topologyBuild(scs[0], spans); err != nil {
		return result{}, err
	}

	// 2. The first instance traced with the counting tracer, timed like
	// the untraced passes, then recorded and exported as JSONL.
	firstRunS := median(field(passes, func(p pass) float64 { return p.firstRunS }))
	ct, err := lr.tracedRun(scs[0], ref.reports[0], firstRunS, spans)
	if err != nil {
		return result{}, err
	}
	if err := lr.recordedRun(scs[0], ref.reports[0], ct, spans); err != nil {
		return result{}, err
	}

	// 3. Direct calls into each layer on a mid-run copy of the first
	// instance, and the session checkpoint cost.
	if err := lr.midRun(scs[0], ref, passes[0].firstEvents, spans); err != nil {
		return result{}, err
	}
	if err := lr.sessionSnapshot(scs[0], ref.reports[0], passes[0].firstEvents, spans); err != nil {
		return result{}, err
	}

	if err := checkFingerprint(&lr.chk, cfg, w, ref); err != nil {
		return result{}, err
	}
	if err := spans.writeJSONL(filepath.Join(cfg.out, runID+"-spans.jsonl")); err != nil {
		return result{}, err
	}
	return finish(lr.chk, lr.m, len(passes)), nil
}

// layerReport accumulates the per-layer metrics and checks of one run.
type layerReport struct {
	*metricSet
	chk checks
}

// nsPer is seconds per event in nanoseconds, 0 without events.
func nsPer(seconds float64, events int64) float64 {
	if events == 0 {
		return 0
	}
	return seconds * 1e9 / float64(events)
}

// profile charges the passes' CPU samples to layers, per pass: one
// set-up (the set-up profile spans setupReps of them) and one run.
func (lr *layerReport) profile(passes []pass, setupReps int) error {
	cpu := map[string]float64{}
	var gcs float64
	for _, p := range passes {
		for _, ph := range []struct {
			prof  []byte
			scale float64
		}{{p.setupProf, 1 / float64(setupReps)}, {p.runProf, 1}} {
			if err := addCPUByLayer(cpu, ph.prof, ph.scale); err != nil {
				return err
			}
		}
		gcs += float64(p.gcs)
	}
	n := float64(len(passes))
	var total, other float64
	layers := make([]string, 0, len(cpu))
	for l := range cpu {
		layers = append(layers, l)
	}
	sort.Strings(layers) // a fixed summation order
	for _, l := range layers {
		if l != layerBench {
			total += cpu[l]
		}
		if l != layerBench && l != layerBackground && !slices.Contains(cpuLayers, l) {
			other += cpu[l]
		}
	}
	for _, l := range cpuLayers {
		lr.put(l+".cpu_s", cpu[l]/n)
	}
	lr.put("other.cpu_s", other/n)
	lr.put("runtime.bg_cpu_s", cpu[layerBackground]/n)
	lr.put("runtime.profiled_cpu_s", total/n)
	lr.put("runtime.gc_cycles", gcs/n)
	return nil
}

// topologyBuild measures one topology build's heap allocation.
func (lr *layerReport) topologyBuild(sc dard.Scenario, spans *spanLog) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := spans.do("topology.build", func() error {
		_, _, err := buildTopology(sc)
		return err
	})
	runtime.ReadMemStats(&m1)
	lr.put("topology.build_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	return err
}

// tracedRun runs the first instance with a counting tracer and requires
// its report to equal the untraced one; untracedS is the untraced run
// time of the same instance.
func (lr *layerReport) tracedRun(sc dard.Scenario, want string, untracedS float64, spans *spanLog) (*countingTracer, error) {
	ct := newCountingTracer()
	insts, err := setupAll([]dard.Scenario{sc}, spans, []trace.Tracer{ct})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	reps, times, err := runAll(insts, spans, nil)
	if err != nil {
		return nil, err
	}
	lr.chk.check(reportJSON(reps[0]) == want, "traced report differs from untraced")
	retx := insts[0].counts().retransmits
	lr.chk.check(ct.events[trace.KindRetransmit] == retx, "traced retransmit events %d, connections counted %d", ct.events[trace.KindRetransmit], retx)
	lr.put("trace.events", float64(ct.total()))
	lr.put("trace.overhead_frac", times[0]/untracedS-1)
	lr.put("dard.exchanges", float64(ct.events[trace.KindControlMsg]))
	return ct, nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// recordedRun runs one instance into a trace.Recorder, exports it as
// JSONL, and requires both its report and its per-kind event counts to
// match the untraced and counting-traced runs.
func (lr *layerReport) recordedRun(sc dard.Scenario, want string, ct *countingTracer, spans *spanLog) error {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	insts, err := setupAll([]dard.Scenario{sc}, spans, []trace.Tracer{rec})
	if err != nil {
		return err
	}
	reps, _, err := runAll(insts, spans, nil)
	if err != nil {
		return err
	}
	lr.chk.check(reportJSON(reps[0]) == want, "recorded report differs from untraced")
	tr := rec.Take()
	lr.chk.check(sameCounts(ct, tr.Events), "counting tracer and trace.Recorder saw different events")
	var cw countWriter
	t := time.Now()
	err = spans.do("trace.write_jsonl", func() error { return trace.WriteJSONL(&cw, tr) })
	enc := time.Since(t).Seconds()
	if err != nil {
		return err
	}
	lr.put("trace.jsonl_mb", float64(cw.n)/(1<<20))
	lr.put("trace.encode_ns_per_event", nsPer(enc, int64(len(tr.Events))))
	return nil
}

// sameCounts reports whether the counting tracer saw exactly the event
// kinds, with the same multiplicities, as the recorded events.
func sameCounts(ct *countingTracer, events []trace.Event) bool {
	got := map[trace.Kind]int64{}
	for _, e := range events {
		got[e.Kind]++
	}
	for _, k := range trace.Kinds() {
		if got[k] != ct.events[k] {
			return false
		}
	}
	return ct.total() == int64(len(events))
}

// stopAt is a context that reports itself canceled once the packet
// runtime's clock reaches at; psim checks it between one-second
// horizons, so the run stops at a deterministic mid-run boundary.
type stopAt struct {
	context.Context
	rt *psim.Runtime
	at float64
}

func (c stopAt) Err() error {
	if c.rt.Now() >= c.at {
		return context.Canceled
	}
	return nil
}

// midRun brings a fresh copy of the first instance to the middle of its
// run and calls into each layer there. A flow engine that can snapshot
// is restored into a second engine that takes the calls, while the
// paused original runs on and must finish exactly like an uninterrupted
// run. An engine that cannot snapshot (the lossy control plane's
// channel state, or the packet engine) takes the calls itself and is
// then discarded; the calls queue timers in drainEnv rather than on it.
func (lr *layerReport) midRun(sc dard.Scenario, ref outcome, events int64, spans *spanLog) error {
	in, err := setupInstance(sc, nil, nil)
	if err != nil {
		return err
	}
	var env idard.Env
	fv := func(monitorKey, int) []int { return nil }
	resumable := false
	if in.sim != nil {
		in.sim.PauseAfter(events / 2)
		if _, err := in.sim.Run(); !errors.Is(err, flowsim.ErrPaused) {
			return fmt.Errorf("pausing mid-run: %v", err)
		}
		view := in.sim
		blob, err := in.sim.Snapshot()
		switch {
		case err == nil:
			if view, err = flowsim.Restore(in.flowConfig(in.controller(), nil), blob); err != nil {
				return err
			}
			resumable = true
		case !errors.Is(err, flowsim.ErrUnsnapshottable):
			return err
		}
		env = view
		fv = func(m monitorKey, n int) []int { return flowVector(view, m, n) }
	} else {
		half := ref.simTimes[0] / 2
		if _, err := in.rt.RunContext(stopAt{context.Background(), in.rt, half}); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("stopping mid-run: %v", err)
		}
		env = in.rt
		lr.kernel(in.rt, spans)
	}
	if err := lr.resolve(in, spans); err != nil {
		return err
	}
	if sc.Scheduler == dard.SchedulerDARD {
		if err := lr.controlPlane(env, in, fv, spans); err != nil {
			return err
		}
	}
	if !resumable {
		return nil
	}
	rep, err := in.runEngine()
	if err != nil {
		return err
	}
	lr.chk.check(reportJSON(rep) == ref.reports[0], "engine snapshot-and-continue report differs from uninterrupted")
	return nil
}

// flowVector is a monitor's FV on the flow engine: its source host's
// elephants towards its destination ToR, counted per path.
func flowVector(s *flowsim.Sim, m monitorKey, n int) []int {
	fv := make([]int, n)
	for _, f := range s.Active() {
		if f.Elephant && f.Src == m.srcHost && f.DstToR == m.dstToR && f.PathIdx >= 0 && f.PathIdx < n {
			fv[f.PathIdx]++
		}
	}
	return fv
}

// timeOps calls fn, which performs the number of operations it returns,
// until at least microDur has passed, and returns the nanoseconds and
// heap allocations per operation.
func timeOps(fn func() (int, error)) (ns, allocs float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	t := time.Now()
	for ops == 0 || time.Since(t) < microDur {
		n, err := fn()
		if err != nil {
			return 0, 0, err
		}
		ops += n
	}
	el := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// resolve times per-path link resolution over the workload's ToR pairs.
func (lr *layerReport) resolve(in *instance, spans *spanLog) error {
	const maxPaths = 1 << 18
	var sets []topology.PathSet
	total := 0
	for _, p := range torPairs(in.net, in.flows) {
		ps := in.net.PathSet(p[0], p[1])
		if total+ps.Len() > maxPaths && len(sets) > 0 {
			break
		}
		sets = append(sets, ps)
		total += ps.Len()
	}
	var buf []topology.LinkID
	var ns, allocs float64
	err := spans.do("topology.resolve", func() error {
		var err error
		ns, allocs, err = timeOps(func() (int, error) {
			for _, ps := range sets {
				for i := 0; i < ps.Len(); i++ {
					buf = ps.AppendLinks(i, buf[:0])
				}
			}
			return total, nil
		})
		return err
	})
	lr.put("topology.resolve_ns", ns)
	lr.put("topology.resolve_allocs", allocs)
	return err
}

// kernel times one After+Step pair on the stopped packet runtime's event
// kernel: the scheduled no-op is due now, before every pending event, so
// Step dispatches exactly it against the mid-run queue.
func (lr *layerReport) kernel(rt *psim.Runtime, spans *spanLog) {
	k := rt.Net().K
	noop := func() {}
	var ns, allocs float64
	_ = spans.do("simnet.kernel", func() error {
		var err error
		ns, allocs, err = timeOps(func() (int, error) {
			for i := 0; i < 1000; i++ {
				k.After(0, noop)
				k.Step()
			}
			return 1000, nil
		})
		return err
	})
	lr.put("simnet.kernel_ns", ns)
	lr.put("simnet.kernel_allocs", allocs)
}

// drainEnv is a control-plane environment over a mid-run engine that
// queues timers instead of scheduling them on the engine; drain runs
// them (and any they queue) at once. A lossy collector's retries thus
// complete within the benchmark's call and never touch the engine.
type drainEnv struct {
	idard.Env
	queue []func()
}

func (d *drainEnv) After(_ float64, fn func()) { d.queue = append(d.queue, fn) }

func (d *drainEnv) drain() {
	for i := 0; i < len(d.queue); i++ {
		d.queue[i]()
	}
	d.queue = d.queue[:0]
}

// probe is one monitor the benchmark drives: its collector, and the
// per-link state of its last complete round.
type probe struct {
	key   monitorKey
	id    uint64
	ps    topology.PathSet
	sws   []topology.NodeID
	coll  *idard.Collector
	state map[topology.LinkID]ctlmsg.PortState
	pv    []idard.PathState
	buf   []topology.LinkID
	fv    []int
}

// controlPlane drives DARD's collector, path-state fold and decision
// rule, and ctlmsg's switch agents and fault channels, for the monitors
// the workload's first flows create.
func (lr *layerReport) controlPlane(env idard.Env, in *instance, fvOf func(monitorKey, int) []int, spans *spanLog) error {
	opts := idard.New(dardOptions(in.sc)).Options()
	g := in.net.Graph()
	de := &drainEnv{Env: env}
	var probes []*probe
	for _, k := range monitors(in.net, in.flows, 32) {
		ps := in.net.PathSet(k.srcToR, k.dstToR)
		p := &probe{key: k, id: uint64(k.srcHost)<<32 | uint64(k.dstToR), ps: ps, sws: idard.CoveringSwitches(g, ps)}
		p.coll = idard.NewCollector(de, p.id, p.sws, opts)
		// Warm rounds create the agents and channels and capture a
		// complete per-link state for the fold.
		for try := 0; try < 8 && p.state == nil; try++ {
			err := p.coll.Assemble(func(ls map[topology.LinkID]ctlmsg.PortState, _ int, complete bool) {
				if complete {
					p.state = maps.Clone(ls)
				}
			})
			if err != nil {
				return err
			}
			de.drain()
		}
		if p.fv = fvOf(k, ps.Len()); p.fv == nil {
			// Engines without a flow listing get one elephant on path 0;
			// Decide scans the whole vector either way.
			p.fv = make([]int, ps.Len())
			p.fv[0] = 1
		}
		probes = append(probes, p)
	}
	done := func(map[topology.LinkID]ctlmsg.PortState, int, bool) {}
	var ns, allocs float64
	err := spans.do("dard.assemble", func() error {
		var err error
		ns, allocs, err = timeOps(func() (int, error) {
			for _, p := range probes {
				if err := p.coll.Assemble(done); err != nil {
					return 0, err
				}
				de.drain()
			}
			return len(probes), nil
		})
		return err
	})
	if err != nil {
		return err
	}
	lr.put("dard.assemble_ns", ns)
	lr.put("dard.assemble_allocs", allocs)

	var folded []*probe
	for _, p := range probes {
		if p.state != nil {
			folded = append(folded, p)
		}
	}
	err = spans.do("dard.fold", func() error {
		var err error
		ns, _, err = timeOps(func() (int, error) {
			for _, p := range folded {
				var err error
				if p.pv, p.buf, err = idard.FoldPVInto(p.pv[:0], p.buf, p.ps, p.state); err != nil {
					return 0, err
				}
			}
			return max(len(folded), 1), nil
		})
		return err
	})
	if err != nil {
		return err
	}
	lr.put("dard.fold_ns", ns)
	err = spans.do("dard.decide", func() error {
		var err error
		ns, _, err = timeOps(func() (int, error) {
			for _, p := range folded {
				idard.Decide(p.pv, p.fv, opts.Delta)
			}
			return max(len(folded), 1), nil
		})
		return err
	})
	if err != nil {
		return err
	}
	lr.put("dard.decide_ns", ns)
	return lr.switchAgents(env, probes, opts.Faults, spans)
}

// switchAgents times ctlmsg's agent Serve and channel construction, and
// measures the share of exchange attempts a fault channel lets through.
func (lr *layerReport) switchAgents(env idard.Env, probes []*probe, f ctlmsg.Faults, spans *spanLog) error {
	agents := map[topology.NodeID]*ctlmsg.SwitchAgent{}
	queries := map[topology.NodeID][]byte{}
	for _, p := range probes {
		for _, sw := range p.sws {
			if agents[sw] != nil {
				continue
			}
			a, err := ctlmsg.NewSwitchAgent(env, sw)
			if err != nil {
				return err
			}
			q, err := ctlmsg.Query{MonitorID: p.id, SwitchID: uint32(sw), SeqNo: 1, TimestampMicros: uint64(env.Now() * 1e6)}.MarshalBinary()
			if err != nil {
				return err
			}
			agents[sw], queries[sw] = a, q
		}
	}
	sws := make([]topology.NodeID, 0, len(agents))
	for sw := range agents {
		sws = append(sws, sw)
	}
	sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })

	var replyBytes, replies int
	var ns, allocs float64
	err := spans.do("ctlmsg.serve", func() error {
		var err error
		ns, allocs, err = timeOps(func() (int, error) {
			for _, sw := range sws {
				rb, err := agents[sw].Serve(queries[sw])
				if err != nil {
					return 0, err
				}
				replyBytes += len(rb)
				replies++
			}
			return len(sws), nil
		})
		return err
	})
	if err != nil {
		return err
	}
	lr.put("ctlmsg.serve_ns", ns)
	lr.put("ctlmsg.serve_allocs", allocs)
	lr.put("ctlmsg.reply_bytes", float64(replyBytes)/float64(replies))

	var sink *ctlmsg.Channel
	err = spans.do("ctlmsg.new_channel", func() error {
		var err error
		ns, _, err = timeOps(func() (int, error) {
			n := 0
			for _, p := range probes {
				for _, sw := range p.sws {
					sink = ctlmsg.NewChannel(f, p.id, uint32(sw))
					n++
				}
			}
			return n, nil
		})
		return err
	})
	if err != nil {
		return err
	}
	_ = sink
	lr.put("ctlmsg.channel_new_ns", ns)

	const attempts = 4
	var ok, tried int
	err = spans.do("ctlmsg.exchange", func() error {
		for _, p := range probes {
			for _, sw := range p.sws {
				ch := ctlmsg.NewChannel(f, p.id, uint32(sw))
				for a := 0; a < attempts; a++ {
					_, _, got, err := ch.TryExchange(agents[sw], queries[sw])
					if err != nil {
						return err
					}
					tried++
					if got {
						ok++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.put("ctlmsg.exchange_ok_ratio", float64(ok)/float64(max(tried, 1)))
	return nil
}

// sessionSnapshot measures the facade session's checkpoint cost: pause
// the first instance halfway, Snapshot, ResumeSession, and require the
// resumed run to finish exactly like the uninterrupted one. Runs that
// cannot snapshot (the packet engine, a lossy control plane) report
// zeros.
func (lr *layerReport) sessionSnapshot(sc dard.Scenario, want string, events int64, spans *spanLog) error {
	if sc.Engine != dard.EngineFlow {
		return nil
	}
	sess, err := dard.NewSession(sc)
	if err != nil {
		return err
	}
	sess.PauseAfter(events / 2)
	if _, err := sess.Run(context.Background()); !errors.Is(err, dard.ErrPaused) {
		return fmt.Errorf("pausing session: %v", err)
	}
	var blob []byte
	t := time.Now()
	err = spans.do("snap.snapshot", func() error {
		var err error
		blob, err = sess.Snapshot()
		return err
	})
	snapS := time.Since(t).Seconds()
	if errors.Is(err, flowsim.ErrUnsnapshottable) {
		return nil
	}
	if err != nil {
		return err
	}
	var resumed *dard.Session
	t = time.Now()
	err = spans.do("snap.resume", func() error {
		var err error
		resumed, err = dard.ResumeSession(blob, nil)
		return err
	})
	resumeS := time.Since(t).Seconds()
	if err != nil {
		return err
	}
	rep, err := resumed.Run(context.Background())
	if err != nil {
		return err
	}
	lr.chk.check(reportJSON(rep) == want, "resumed session report differs from uninterrupted")
	lr.put("snap.snapshot_mb", float64(len(blob))/(1<<20))
	lr.put("snap.snapshot_s", snapS)
	lr.put("snap.resume_s", resumeS)
	return nil
}
