package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"dard"
	"dard/internal/ctlmsg"
	idard "dard/internal/dard"
	"dard/internal/flowsim"
	"dard/internal/fpcmp"
	"dard/internal/metrics"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/tcp"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// workloadDef is one benchmark workload: a scenario template, the number
// of independent instances a run pools (each with its own seed derived
// from the run's seed), and how many back-to-back set-ups one setup_s
// sample averages over.
type workloadDef struct {
	name string
	why  string
	// scenario is the template; Seed is filled per instance.
	scenario dard.Scenario
	// instances is how many independently seeded copies one pass runs.
	// Small workloads pool several so seed-to-seed spread stays low.
	instances int
	// setupReps is how many back-to-back set-ups of all instances one
	// pass times, in up to setupGroups groups, so a sample spans far more
	// than scheduler jitter.
	setupReps int
	// runReps is how many times one pass runs its instances, on fresh
	// engines over the same set-up, so a workload whose set-up takes far
	// longer than its run still gets enough run-time samples.
	runReps int
}

// testbedTuning is the DARD tuning of the paper's p=4 testbed
// experiments: a shortened control loop for short runs.
var testbedTuning = dard.Tuning{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1}

// fabric16 is the p=16 fat-tree at full population (1,024 hosts) under
// stride traffic, the fabric both DARD flow workloads share.
func fabric16(window float64, tuning dard.Tuning) dard.Scenario {
	return dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 16},
		Scheduler:   dard.SchedulerDARD,
		Pattern:     dard.PatternStride,
		Engine:      dard.EngineFlow,
		FileSizeMB:  128,
		RatePerHost: 0.5,
		Duration:    window,
		DARD:        tuning,
	}
}

// workloads is the benchmark's workload table, in reporting order.
var workloads = []workloadDef{
	{
		name:      "flow-dard-fabric",
		why:       "p=16 fat-tree, stride, DARD with the paper's tuning: the flow engine and the reliable control plane both busy",
		scenario:  fabric16(10, dard.Tuning{}),
		instances: 1,
		setupReps: 20,
		runReps:   1,
	},
	{
		name:      "flow-dard-lossy",
		why:       "same fabric with 5% control-message loss: the asynchronous retry path through Collector and ctlmsg.Channel",
		scenario:  fabric16(5, dard.Tuning{CtlLossProb: 0.05}),
		instances: 1,
		setupReps: 20,
		runReps:   1,
	},
	{
		name: "flow-ecmp-p128",
		why:  "p=128 fat-tree, one host per ToR, ECMP: topology build, workload and flowsim at scale with no control plane",
		scenario: dard.Scenario{
			Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 128, HostsPerToR: 1},
			Scheduler:   dard.SchedulerECMP,
			Pattern:     dard.PatternStride,
			Engine:      dard.EngineFlow,
			FileSizeMB:  64,
			RatePerHost: 2,
			Duration:    2,
		},
		instances: 1,
		setupReps: 1,
		runReps:   4,
	},
	{
		name: "packet-dard-testbed",
		why:  "the paper's p=4 100 Mbps testbed on the packet engine with DARD: simnet, tcp and psim, no flow layers",
		scenario: dard.Scenario{
			Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4, LinkCapacity: 100e6},
			Scheduler:      dard.SchedulerDARD,
			Pattern:        dard.PatternStride,
			Engine:         dard.EnginePacket,
			FileSizeMB:     8,
			RatePerHost:    0.6,
			Duration:       2,
			ElephantAgeSec: 0.5,
			DARD:           testbedTuning,
		},
		instances: 12,
		setupReps: 100,
		runReps:   1,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// instanceSeed derives the scenario seed of instance i of a run seeded
// with seed: distinct runs and distinct instances never share a seed,
// and the result is never the zero value the facade would default.
func (w workloadDef) instanceSeed(seed int64, i int) int64 {
	return seed*int64(w.instances) + int64(i) + 1
}

// scenarios returns the run's fully specified scenarios, one per
// instance. Probes are off: the benchmark traces events only, because
// per-link probes at p=128 would record millions of series.
func (w workloadDef) scenarios(seed int64) []dard.Scenario {
	out := make([]dard.Scenario, w.instances)
	for i := range out {
		sc := w.scenario
		sc.Seed = w.instanceSeed(seed, i)
		sc.TraceProbeInterval = -1
		out[i] = sc
	}
	return out
}

// instance is one scenario assembled from the internal layers the way
// the facade's Scenario.Run assembles it, so the benchmark can time each
// layer's construction and reach the engine between events.
type instance struct {
	sc    dard.Scenario
	net   topology.Network
	flows []workload.Flow

	// Flow engine.
	sim *flowsim.Sim
	ctl flowsim.Controller
	// Packet engine.
	rt   *psim.Runtime
	pol  psim.Policy
	pres *psim.Results // set once the run finished
}

// dardOptions mirrors the facade's Tuning → internal options mapping.
func dardOptions(sc dard.Scenario) idard.Options {
	t := sc.DARD
	return idard.Options{
		QueryInterval:    t.QueryInterval,
		ScheduleInterval: t.ScheduleInterval,
		ScheduleJitter:   t.ScheduleJitter,
		DisableJitter:    t.DisableJitter,
		Delta:            t.DeltaBps,
		PerFlowMonitors:  t.PerFlowMonitors,
		Faults:           faults(sc),
		CtlRetryMax:      t.CtlRetryMax,
		DeadAfter:        t.DeadAfterMisses,
	}
}

// faults mirrors the facade: the scenario seed keys the fault stream.
func faults(sc dard.Scenario) ctlmsg.Faults {
	t := sc.DARD
	if fpcmp.IsZero(t.CtlLossProb) && fpcmp.IsZero(t.CtlDupProb) && fpcmp.IsZero(t.CtlDelaySec) {
		return ctlmsg.Faults{}
	}
	return ctlmsg.Faults{LossProb: t.CtlLossProb, DupProb: t.CtlDupProb, DelayS: t.CtlDelaySec, Seed: sc.Seed}
}

// buildTopology constructs the scenario's fat-tree and its host layout.
func buildTopology(sc dard.Scenario) (topology.Network, *workload.Layout, error) {
	spec := sc.Topology
	if spec.Kind != dard.FatTree {
		return nil, nil, fmt.Errorf("benchmark workloads use fat-trees, got %q", spec.Kind)
	}
	net, err := topology.NewFatTree(topology.FatTreeConfig{
		P:            spec.P,
		HostsPerToR:  spec.HostsPerToR,
		LinkCapacity: spec.LinkCapacity,
		LinkDelay:    spec.LinkDelay,
	})
	if err != nil {
		return nil, nil, err
	}
	return net, workload.NewLayout(net), nil
}

// generate draws the scenario's stride workload.
func generate(sc dard.Scenario, layout *workload.Layout) ([]workload.Flow, error) {
	if sc.Pattern != dard.PatternStride {
		return nil, fmt.Errorf("benchmark workloads use stride traffic, got %q", sc.Pattern)
	}
	return workload.Generate(layout, workload.Config{
		Pattern:     workload.Stride{N: layout.NumHosts, Step: layout.HostsPerPod()},
		RatePerHost: sc.RatePerHost,
		Duration:    sc.Duration,
		SizeBytes:   sc.FileSizeMB * (1 << 20),
		Seed:        sc.Seed,
	})
}

// newEngine builds the scenario's engine and controller over an already
// built topology and workload; tr may be nil.
func (in *instance) newEngine(tr trace.Tracer) error {
	sc := in.sc
	switch sc.Engine {
	case dard.EngineFlow:
		in.ctl = in.controller()
		if in.ctl == nil {
			return fmt.Errorf("unsupported flow scheduler %q", sc.Scheduler)
		}
		sim, err := flowsim.New(in.flowConfig(in.ctl, tr))
		if err != nil {
			return err
		}
		in.sim = sim
	case dard.EnginePacket:
		if sc.Scheduler != dard.SchedulerDARD {
			return fmt.Errorf("unsupported packet scheduler %q", sc.Scheduler)
		}
		in.pol = psim.NewDARD(dardOptions(sc))
		rt, err := psim.NewRuntime(psim.Config{
			Topo:        in.net,
			Policy:      in.pol,
			Flows:       in.flows,
			Seed:        sc.Seed,
			ElephantAge: sc.ElephantAgeSec,
			MaxTime:     sc.MaxTimeSec,
			TCP:         tcp.Options{},
			Tracer:      tr,
		})
		if err != nil {
			return err
		}
		in.rt = rt
	default:
		return fmt.Errorf("unknown engine %q", sc.Engine)
	}
	return nil
}

func (in *instance) flowConfig(ctl flowsim.Controller, tr trace.Tracer) flowsim.Config {
	return flowsim.Config{
		Net:         in.net,
		Controller:  ctl,
		Flows:       in.flows,
		Seed:        in.sc.Seed,
		ElephantAge: in.sc.ElephantAgeSec,
		MaxTime:     in.sc.MaxTimeSec,
		Tracer:      tr,
	}
}

// controller returns a new flow-engine controller for the scenario, nil
// for a scheduler the benchmark does not use.
func (in *instance) controller() flowsim.Controller {
	switch in.sc.Scheduler {
	case dard.SchedulerECMP:
		return sched.ECMP{}
	case dard.SchedulerDARD:
		return idard.New(dardOptions(in.sc))
	}
	return nil
}

// runEngine runs the instance's engine to completion and assembles the
// facade Report the same way Scenario.Run does.
func (in *instance) runEngine() (*dard.Report, error) {
	if in.sim != nil {
		res, err := in.sim.Run()
		if err != nil {
			return nil, err
		}
		return in.flowReport(res), nil
	}
	res, err := in.rt.Run()
	if err != nil {
		return nil, err
	}
	in.pres = res
	rep := &dard.Report{
		Scheduler:       res.Policy,
		Engine:          dard.EnginePacket,
		Topology:        in.net.Name(),
		Pattern:         in.sc.Pattern,
		Flows:           len(in.flows),
		Unfinished:      res.Unfinished,
		TransferTimes:   res.TransferTimes().Values(),
		PathSwitches:    res.PathSwitchCounts().Values(),
		RetxRates:       res.RetxRates().Values(),
		ControlBytes:    res.ControlBytes,
		SimTime:         res.SimTime,
		CoreUtilization: res.CoreUtilization,
	}
	if dp, ok := in.pol.(*psim.DARD); ok {
		rep.DARDShifts = dp.Shifts
	}
	return rep, nil
}

func (in *instance) flowReport(res *flowsim.Results) *dard.Report {
	rep := &dard.Report{
		Scheduler:     res.Controller,
		Engine:        dard.EngineFlow,
		Topology:      in.net.Name(),
		Pattern:       in.sc.Pattern,
		Flows:         len(in.flows),
		Unfinished:    res.Unfinished,
		TransferTimes: res.TransferTimes().Values(),
		PathSwitches:  res.PathSwitchCounts().Values(),
		ControlBytes:  res.ControlBytes,
		SimTime:       res.SimTime,
		PeakElephants: res.PeakElephants,
	}
	if dc, ok := in.ctl.(*idard.Controller); ok {
		rep.DARDShifts = dc.Shifts
		rep.DARDRounds = dc.Rounds
	}
	return rep
}

// outcome is the simulated result of one pass over a run's instances:
// the quantities every host-side speed-up must leave identical.
type outcome struct {
	flows, unfinished int
	meanTransfer      float64
	p90Transfer       float64
	simTimes          []float64
	controlBytes      float64
	pathSwitches      int
	// reports holds each instance's report as JSON; equal slices mean
	// byte-identical reports.
	reports []string
}

// summarize pools the instances' reports: transfer-time statistics over
// every completed flow of every instance, counts summed.
func summarize(reps []*dard.Report) outcome {
	var o outcome
	var tt metrics.Sample
	for _, r := range reps {
		o.reports = append(o.reports, reportJSON(r))
		o.flows += r.Flows
		o.unfinished += r.Unfinished
		o.simTimes = append(o.simTimes, r.SimTime)
		o.controlBytes += r.ControlBytes
		o.pathSwitches += r.DARDShifts
		tt.AddAll(r.TransferTimes)
	}
	if tt.N() > 0 {
		o.meanTransfer = tt.Mean()
		o.p90Transfer = tt.Quantile(0.9)
	}
	return o
}

// reportJSON is the report as Scenario.Run's callers serialize it.
func reportJSON(r *dard.Report) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Reports hold plain numbers and strings; NaN never reaches
		// them, since unfinished flows are left out of every sample.
		panic(fmt.Sprintf("marshal report: %v", err))
	}
	return string(b)
}

// engineCounts are the work counters of finished runs.
type engineCounts struct {
	events, recomputes, components int64 // flow engine
	segments, retransmits, drops   int64 // packet engine: data packets sent, retransmitted, dropped
}

func (c *engineCounts) add(d engineCounts) {
	c.events += d.events
	c.recomputes += d.recomputes
	c.components += d.components
	c.segments += d.segments
	c.retransmits += d.retransmits
	c.drops += d.drops
}

// counts reads the work counters of the instance's finished run.
func (in *instance) counts() engineCounts {
	var c engineCounts
	if in.sim != nil {
		st := in.sim.IntraStats()
		c.events, c.recomputes, c.components = in.sim.Events(), st.Recomputes, st.Components
	}
	if in.pres != nil {
		for _, f := range in.pres.Flows {
			c.segments += int64(f.TotalSegs + f.Retx)
			c.retransmits += int64(f.Retx)
		}
		net := in.rt.Net()
		for l := 0; l < in.net.Graph().NumLinks(); l++ {
			c.drops += net.Drops(topology.LinkID(l)) + net.FailDrops(topology.LinkID(l))
		}
	}
	return c
}

// torPairs returns the distinct (source ToR, destination ToR) pairs of
// the workload's inter-ToR flows, in first-arrival order.
func torPairs(net topology.Network, flows []workload.Flow) [][2]topology.NodeID {
	hosts := net.Hosts()
	seen := make(map[[2]topology.NodeID]bool)
	var out [][2]topology.NodeID
	for _, f := range flows {
		p := [2]topology.NodeID{net.ToROf(hosts[f.Src]), net.ToROf(hosts[f.Dst])}
		if p[0] == p[1] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// monitorKey identifies a DARD monitor: a source host and a destination
// ToR (§2.4.1's monitor sharing).
type monitorKey struct {
	srcHost, srcToR, dstToR topology.NodeID
}

// monitors returns the distinct monitors the workload's inter-ToR flows
// would create, sorted, at most limit of them.
func monitors(net topology.Network, flows []workload.Flow, limit int) []monitorKey {
	hosts := net.Hosts()
	seen := make(map[monitorKey]bool)
	var out []monitorKey
	for _, f := range flows {
		src := hosts[f.Src]
		m := monitorKey{src, net.ToROf(src), net.ToROf(hosts[f.Dst])}
		if m.srcToR == m.dstToR || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
		if len(out) == limit {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].srcHost != out[j].srcHost {
			return out[i].srcHost < out[j].srcHost
		}
		return out[i].dstToR < out[j].dstToR
	})
	return out
}
