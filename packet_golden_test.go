package dard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"dard/internal/trace"
)

// Golden packet-engine digests. Each value is the SHA-256 of a packet
// run's Report JSON (or, for the traced run, of its JSONL trace). The
// other determinism tests compare runs of the same build against each
// other; these pin the packet engine's results across builds, so a
// kernel, TCP or queueing change that moves a single event or float bit
// shows up here. A deliberate change of packet behaviour re-records
// them: run with -v and copy the printed digests.
var packetGolden = map[string]string{
	"ECMP/stride":       "1c9558ab10ca019a7735b850543b4fa7e7eafef7890fe526244cc1365057479b",
	"ECMP/random":       "0485884c3105232484c6e2e3cbd5df852b0968302457b93e4b4ee5b5bb3ae1b5",
	"ECMP/staggered":    "a3208cc23251aa96f35dc54b08ac2d7f520d99e69a55107195d5570f9b8c5084",
	"pVLB/stride":       "f40ce202374ab7f87eb6a5d8486357cf644010004d845351e5f7ce52f2d48959",
	"pVLB/random":       "67408e6e83eb3c40ba0c91b7a329c631b5af506ea4a98533ffcfea1ddb4b0df4",
	"pVLB/staggered":    "b0c9e14611dc57500c30eac9401618c0f19cae3c66b18dd1725615f5234fd6b4",
	"DARD/stride":       "60a495599ea3f5f08b937da2aad8115c6c409a15cfbb5a0ba52d901180152622",
	"DARD/random":       "5da7c50a5c0673ab48c6e8d3d261dd5f677139062aa5dcec16c63067c6dfabb3",
	"DARD/staggered":    "a811bc128a834f09074a8c82ea32f329ddc2eb99658a0e8ee0e8eae9e4757e2d",
	"TeXCP/stride":      "7fcb10ed5e479851342159bb04763ade74057c940be7fd5da0551b4c1a310b0f",
	"TeXCP/random":      "11e7c9f7c6600250b22381ee62cdef337b2fefd7335ee9a81005fef743782737",
	"TeXCP/staggered":   "78a85fa5ae1ea497633525fc56ca4c6a589ccef83fa0467fb6d216df22b1f49a",
	"failure":           "a14d0b0a8e12227c3eb3af772395119b7e5eec03dfd6365ed5f3f71d51e4975f",
	"failure/lossy-ctl": "854f52ca0d0e1700fa9ef6ff060d584a92fafb3d81f9cce7b44b1c5c282f0944",
	"traced/report":     "5d54b4081ca2149750e73f4bc0e1be45980a77b6b111a2bd3c87b73175c98636",
	"traced/jsonl":      "a6e5f2d6c109c496b7e45d81ec63694821a61b586052d66b83abe48e9191e12a",
}

// goldenPacketScenario is a short p=4, 100 Mbps packet run: long enough
// for elephants, DARD rounds and TeXCP probes, small enough for tier-1.
func goldenPacketScenario(s Scheduler, p Pattern) Scenario {
	return Scenario{
		Topology:       TopologySpec{Kind: FatTree, P: 4, LinkCapacity: 100e6},
		Scheduler:      s,
		Pattern:        p,
		Engine:         EnginePacket,
		RatePerHost:    0.5,
		Duration:       2,
		FileSizeMB:     3,
		Seed:           23,
		ElephantAgeSec: 0.1,
		VLBIntervalSec: 0.2,
		DARD:           Tuning{QueryInterval: 0.05, ScheduleInterval: 0.1, ScheduleJitter: 0.1},
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	t.Logf("%q: %q,", name, got)
	if want := packetGolden[name]; got != want {
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

func TestPacketGoldenDigests(t *testing.T) {
	for _, s := range []Scheduler{SchedulerECMP, SchedulerPVLB, SchedulerDARD, SchedulerTeXCP} {
		for _, p := range []Pattern{PatternStride, PatternRandom, PatternStaggered} {
			name := fmt.Sprintf("%s/%s", s, p)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := goldenPacketScenario(s, p).Run()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Flows == 0 || len(rep.TransferTimes) == 0 {
					t.Fatalf("degenerate run: %d flows, %d completed", rep.Flows, len(rep.TransferTimes))
				}
				checkGolden(t, name, reportDigest(t, rep))
			})
		}
	}
	t.Run("failure", func(t *testing.T) {
		t.Parallel()
		for _, lossy := range []bool{false, true} {
			scn := failureScenario(EnginePacket)
			name := "failure"
			if lossy {
				scn.DARD.CtlLossProb = 0.05
				name = "failure/lossy-ctl"
			}
			rep, err := scn.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, reportDigest(t, rep))
		}
	})
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		rec := trace.NewRecorder(trace.RecorderOptions{})
		scn := packetTraceScenario()
		scn.Tracer = rec
		rep, err := scn.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "traced/report", reportDigest(t, rep))
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, rec.Take()); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "traced/jsonl", sha256Hex(buf.Bytes()))
	})
}
