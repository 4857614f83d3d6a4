// Command perfbench is the repository benchmark. It runs one workload
// per process, times set-up and run separately, checks that the
// simulated outcome is exactly the one Scenario.Run reports, and prints
// the metrics as one JSON object on its last line of output.
//
//	bash perfbench/run.sh --workload flow-dard-fabric --seed 1 --seconds 20 --trace 0
//
// run.sh, started from the repository root, builds the binary into
// .bench_build and runs it there.
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it reports per-layer metrics from profiled, traced and
// instrumented runs, and writes spans and a CPU profile under --out.
// --workload all runs every workload, each in a fresh process, and
// prints one table. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"dard"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks tallies operations: simulated flows, where an unfinished flow
// fails, and correctness checks, where a mismatch fails.
type checks struct {
	attempted, failed int64
	notes             []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) flows(o outcome) {
	c.attempted += int64(o.flows)
	c.failed += int64(o.unfinished)
	if o.unfinished > 0 {
		c.notes = append(c.notes, fmt.Sprintf("%d of %d flows unfinished", o.unfinished, o.flows))
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\"")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (default 1; 2 is the held-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for spans, profiles and report fingerprints")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seed < 0 || cfg.seconds <= 0 {
		fatalf("--seed must be >= 0 and --seconds > 0")
	}
	// The engines run serially. One P keeps the garbage collector on the
	// measured thread as well, so host times count all of a run's CPU
	// work and do not depend on whether a second CPU is free: on a shared
	// 2-vCPU host this cut the packet workload's run-time spread over
	// ten seeds from 25% to 10-12%.
	runtime.GOMAXPROCS(1)
	if cfg.workload == "all" {
		if err := runAllWorkloads(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "fingerprints"), 0o755); err != nil {
		fatalf("%v", err)
	}
	printEnv(cfg, w)
	var res result
	if cfg.trace {
		res, err = layerRun(cfg, w)
	} else {
		res, err = endToEndRun(cfg, w)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printEnv records what the numbers were measured on.
func printEnv(cfg config, w workloadDef) {
	seeds := make([]int64, w.instances)
	for i := range seeds {
		seeds[i] = w.instanceSeed(cfg.seed, i)
	}
	env := map[string]any{
		"workload":       w.name,
		"seed":           cfg.seed,
		"instance_seeds": seeds,
		"trace":          cfg.trace,
		"seconds":        cfg.seconds,
		"host_cpus":      runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit(),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println(string(b))
}

// commit names the measured source: the VCS revision stamped into the
// binary when it was built inside a repository, with a digest of the Go
// sources under the working directory when the tree had local changes,
// and the digest alone otherwise.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty-" + sourceDigest()
			}
			return rev
		}
	}
	return sourceDigest()
}

// sourceDigest is a digest of the Go sources and go.mod files under the
// working directory.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\n")
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEndRun measures untraced passes and reports the end-to-end
// metrics.
func endToEndRun(cfg config, w workloadDef) (result, error) {
	scs := w.scenarios(cfg.seed)
	cal := &calibrator{samples: make([]float64, 0, 256)}
	passes, err := measurePasses(w, scs, passOptions{seconds: cfg.seconds, cal: cal})
	if err != nil {
		return result{}, err
	}
	var chk checks
	ref := passes[0].out
	checkPasses(&chk, passes)
	if err := checkFacade(&chk, scs[0], ref.reports[0]); err != nil {
		return result{}, err
	}
	if err := checkFingerprint(&chk, cfg, w, ref); err != nil {
		return result{}, err
	}
	ms := newMetricSet(endToEnd)
	setupS := median(field(passes, func(p pass) float64 { return p.setupS }))
	runS := median(runTimes(passes))
	fmt.Printf("  wall: setup %.6g s, run %.6g s; calibration median %.6g s over %d samples (scale %.4f); %d flows per run\n",
		setupS, runS, median(cal.samples), len(cal.samples), cal.scale(), ref.flows)
	// The run's cost is reported per simulated flow. A run's flow count
	// is fixed by its seed, so the division leaves every comparison of
	// two commits on the same seed as it was, and takes the Poisson
	// spread of the flow count out of the spread across seeds.
	flows := float64(ref.flows)
	ms.put("setup_s", setupS*cal.scale())
	ms.put("run_ms_per_flow", runS*cal.scale()*1e3/flows)
	ms.put("alloc_kb_per_flow", median(field(passes, func(p pass) float64 { return float64(p.allocB) / (1 << 10) }))/flows)
	ms.put("allocs_per_flow", median(field(passes, func(p pass) float64 { return float64(p.mallocs) }))/flows)
	ms.put("peak_rss_mb", median(field(passes, func(p pass) float64 { return p.peakRSSMB })))
	ms.put("sim_mean_transfer_s", ref.meanTransfer)
	ms.put("sim_p90_transfer_s", ref.p90Transfer)
	ms.put("finished_frac", float64(ref.flows-ref.unfinished)/float64(ref.flows))
	return finish(chk, ms.m, len(passes)), nil
}

// checkPasses counts every run's flows and requires every run of every
// pass to report exactly what the first run of the first pass did.
func checkPasses(chk *checks, passes []pass) {
	ref := passes[0].out
	for i, p := range passes {
		chk.flows(p.out)
		if i > 0 {
			chk.check(slices.Equal(p.out.reports, ref.reports), "pass %d report differs from pass 0", i)
		}
		for j, o := range p.reruns {
			chk.flows(o)
			chk.check(slices.Equal(o.reports, ref.reports), "pass %d run %d report differs from pass 0", i, j+1)
		}
	}
}

// finish assembles the result and reports failed checks on stderr.
func finish(chk checks, m map[string]metric, passes int) result {
	for _, n := range chk.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	fmt.Printf("  passes: %d, checks+flows attempted: %d, failed: %d\n", passes, chk.attempted, chk.failed)
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}
}

// checkFacade runs the first instance's scenario through the public
// Scenario.Run and requires its report JSON to equal the benchmark's,
// byte for byte: the benchmark assembles the engines itself, and this
// proves it assembles the same run.
func checkFacade(chk *checks, sc dard.Scenario, want string) error {
	rep, err := sc.Run()
	if err != nil {
		return fmt.Errorf("Scenario.Run: %w", err)
	}
	chk.check(reportJSON(rep) == want, "benchmark report differs from Scenario.Run's for seed %d", sc.Seed)
	return nil
}

// checkFingerprint compares the run's reports with those an earlier run
// of the same workload and seed left under --out, so determinism is
// checked across processes too; the first run records them.
func checkFingerprint(chk *checks, cfg config, w workloadDef, o outcome) error {
	sum := sha256.Sum256([]byte(strings.Join(o.reports, "\n")))
	got := hex.EncodeToString(sum[:])
	// Keyed by the source too: a change that alters the simulation on
	// purpose starts fresh rather than failing against the old output.
	src := strings.NewReplacer(":", "-", "+", "-").Replace(commit())
	path := filepath.Join(cfg.out, "fingerprints", fmt.Sprintf("%s-seed%d-%s", w.name, cfg.seed, src))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		chk.check(string(prev) == got, "reports differ from an earlier run with the same seed (%s)", path)
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return os.WriteFile(path, []byte(got), 0o644)
	}
	return err
}
