package simnet

import (
	"math"
	"reflect"
	"testing"

	"dard/internal/topology"
)

// firing is one fired callback as the order oracle sees it.
type firing struct {
	id int
	at float64
}

// scheduler is what the kernel-order program needs of either kernel.
type scheduler interface {
	after(d float64, fn func()) (cancel func())
	step() bool
	run(until float64)
	now() float64
}

type typedSched struct{ k *Kernel }

func (s typedSched) after(d float64, fn func()) func() { return s.k.After(d, fn).Cancel }
func (s typedSched) step() bool                        { return s.k.Step() }
func (s typedSched) run(until float64)                 { s.k.Run(until) }
func (s typedSched) now() float64                      { return s.k.Now() }

type refSched struct{ k *refKernel }

func (s refSched) after(d float64, fn func()) func() { return s.k.After(d, fn).Cancel }
func (s refSched) step() bool                        { return s.k.Step() }
func (s refSched) run(until float64)                 { s.k.Run(until) }
func (s refSched) now() float64                      { return s.k.Now() }

// tieDelays are the delays programs draw from: few distinct values, so
// exact-time ties between events are common.
var tieDelays = [...]float64{0, 0.25, 0.5, 1, 1, 2, 0.5, 0}

// runKernelProgram interprets ops on s and returns the firing log. Every
// op byte pair is (opcode, operand). Each scheduled event carries a
// child code fixed at scheduling time, so what an event does when it
// fires is the same on every kernel: it may schedule a follow-up event
// and may cancel an earlier timer (fired or not).
func runKernelProgram(s scheduler, ops []byte) []firing {
	var log []firing
	var cancels []func()
	var schedule func(d float64, child byte)
	schedule = func(d float64, child byte) {
		id := len(cancels)
		cancels = append(cancels, nil)
		cancels[id] = s.after(d, func() {
			log = append(log, firing{id, s.now()})
			if child%3 == 0 && child > 0 {
				schedule(tieDelays[child%8], child/3)
			}
			if child%5 == 1 {
				cancels[int(child)%len(cancels)]()
			}
		})
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 6 {
		case 0, 1, 2:
			schedule(tieDelays[arg%8], arg)
		case 3:
			if len(cancels) > 0 {
				cancels[int(arg)%len(cancels)]()
			}
		case 4:
			s.step()
		case 5:
			s.run(s.now() + tieDelays[arg%8])
		}
	}
	s.run(math.Inf(1))
	return log
}

// checkKernelOrder runs ops on the typed kernel and on refKernel and
// requires the same firing order at the same times.
func checkKernelOrder(t *testing.T, ops []byte) {
	t.Helper()
	k := &Kernel{}
	got := runKernelProgram(typedSched{k}, ops)
	want := runKernelProgram(refSched{&refKernel{}}, ops)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order differs from the reference kernel\ngot:  %v\nwant: %v", got, want)
	}
	if k.Pending() != 0 || k.canceled != 0 {
		t.Fatalf("drained kernel has Pending=%d canceled=%d, want 0 and 0", k.Pending(), k.canceled)
	}
}

func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 3, 1, 4, 0, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 0, 3, 0, 3, 0, 5, 1})
	f.Add([]byte{0, 9, 1, 27, 2, 81, 3, 2, 5, 3, 0, 6, 4, 4, 3, 5})
	f.Add([]byte{0, 1, 0, 2, 3, 0, 4, 0, 4, 0}) // Step past a canceled head
	// Run stops before a later event, then an earlier one is scheduled.
	f.Add([]byte{0, 3, 0, 5, 5, 1, 0, 1, 0, 0, 4, 0})
	// A large cancel-heavy program crosses compactMin and compacts.
	big := make([]byte, 0, 600)
	for i := 0; i < 150; i++ {
		big = append(big, 0, byte(i))
	}
	for i := 0; i < 150; i++ {
		big = append(big, 3, byte(i))
	}
	f.Add(big)
	f.Fuzz(checkKernelOrder)
}

// runNetProgram runs a random packet workload on the typed net or the
// reference one. Each op byte quadruple sends one packet (size class,
// route, and send time from small sets, so packets tie at links) or
// fails or repairs a link in the middle of a route.
func runNetProgram(t *testing.T, ops []byte, typed bool) (deliveries []firing, drops, failDrops []int64, bits []float64) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	hosts := len(ft.Hosts())
	// At 100 Mbps a 10,000-bit packet serializes in exactly the 0.1 ms
	// link delay, and the others in simple fractions of it, so a
	// packet's arrival ties with its link's next tx-done and with other
	// links' events: the cases the (time, sequence) tie-break decides.
	sizes := [...]float64{10000, 320, 5000, 12320}
	var send func(p *Packet)
	var after func(d float64, fn func())
	var setDown func(l topology.LinkID, down bool)
	var now func() float64
	var finish func()
	deliver := func(p *Packet) {
		deliveries = append(deliveries, firing{p.FlowID, now()})
	}
	const buf = 4
	var n *Net
	var r *refNet
	if typed {
		n, err = NewNet(ft, buf, 1500*8, deliver)
		if err != nil {
			t.Fatal(err)
		}
		send = func(p *Packet) {
			q := n.NewPacket()
			*q = *p
			n.Send(q)
		}
		after = func(d float64, fn func()) { n.K.After(d, fn) }
		setDown, now = n.SetLinkDown, n.K.Now
		finish = func() { n.K.Run(math.Inf(1)) }
	} else {
		r = newRefNet(ft.Graph(), buf, 1500*8, deliver)
		send = r.Send
		after = func(d float64, fn func()) { r.K.After(d, fn) }
		setDown, now = r.SetLinkDown, r.K.Now
		finish = func() { r.K.Run(math.Inf(1)) }
	}
	for i := 0; i+3 < len(ops); i += 4 {
		src, dst := int(ops[i])%hosts, int(ops[i+1])%hosts
		// Send times are multiples of one 5,000-bit serialization.
		at := float64(ops[i+2]%16) * 50e-6
		var route []topology.LinkID // src == dst: delivered in place
		if src != dst {
			hs := ft.Hosts()
			paths := len(ft.Paths(ft.ToROf(hs[src]), ft.ToROf(hs[dst])))
			route = hostRoute(ft, src, dst, int(ops[i+3]/4)%paths)
		}
		switch ops[i+3] % 8 {
		case 7:
			if len(route) > 0 {
				l, down := route[len(route)/2], ops[i]%2 == 0
				after(at, func() { setDown(l, down) })
			}
		default:
			p := Packet{FlowID: i / 4, SizeBits: sizes[ops[i+3]%4], Route: route}
			after(at, func() { send(&p) })
		}
	}
	finish()
	for l := 0; l < ft.Graph().NumLinks(); l++ {
		if typed {
			ls := &n.links[l]
			drops, failDrops, bits = append(drops, ls.drops), append(failDrops, ls.failDrops), append(bits, ls.bitsSent)
		} else {
			ls := &r.links[l]
			drops, failDrops, bits = append(drops, ls.drops), append(failDrops, ls.failDrops), append(bits, ls.bitsSent)
		}
	}
	return deliveries, drops, failDrops, bits
}

// checkNetOrder requires per-packet delivery times, drops, fail drops
// and bits sent to match the closure-per-hop reference bit for bit.
func checkNetOrder(t *testing.T, ops []byte) {
	t.Helper()
	gd, gdr, gf, gb := runNetProgram(t, ops, true)
	wd, wdr, wf, wb := runNetProgram(t, ops, false)
	if !reflect.DeepEqual(gd, wd) {
		t.Fatalf("deliveries differ from the reference net\ngot:  %v\nwant: %v", gd, wd)
	}
	if !reflect.DeepEqual(gdr, wdr) || !reflect.DeepEqual(gf, wf) || !reflect.DeepEqual(gb, wb) {
		t.Fatalf("link counters differ from the reference net")
	}
}

func FuzzNetOrder(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 1, 8, 0, 4, 2, 9, 0, 1, 0, 8, 1, 8})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{3, 12, 0, 2, 3, 12, 1, 7, 3, 12, 2, 2, 3, 12, 9, 7, 3, 12, 3, 2})
	// Many senders into one host: congestion, ACK-sized packets
	// overtaking at shared links, and drop-tail losses.
	var incast []byte
	for i := 0; i < 60; i++ {
		incast = append(incast, byte(i), 15, byte(i%5), byte(i*3))
	}
	f.Add(incast)
	f.Fuzz(checkNetOrder)
}

// TestTimerCancelAfterFire pins that cancelling a fired timer is a
// no-op: it must not count a cancellation (which would trigger spurious
// compactions) nor touch the event now occupying its slot.
func TestTimerCancelAfterFire(t *testing.T) {
	var k Kernel
	fired := 0
	tm := k.After(1, func() { fired++ })
	k.Run(math.Inf(1))
	tm.Cancel()
	if k.Pending() != 0 || k.canceled != 0 {
		t.Fatalf("after cancelling a fired timer: Pending=%d canceled=%d, want 0 and 0", k.Pending(), k.canceled)
	}
	// The fired timer's slot is reused by the next event; the stale
	// handle must not cancel it.
	k.After(1, func() { fired++ })
	tm.Cancel()
	k.Run(math.Inf(1))
	if fired != 2 {
		t.Fatalf("fired = %d, want 2: a stale handle canceled a later event", fired)
	}
	var zero Timer
	zero.Cancel() // the zero Timer is inert
}

// TestKernelStats checks the deterministic counters on a bare kernel.
func TestKernelStats(t *testing.T) {
	var k Kernel
	var timers []Timer
	for i := 0; i < 4; i++ {
		timers = append(timers, k.After(float64(i), func() {}))
	}
	timers[1].Cancel()
	timers[1].Cancel()
	k.Run(math.Inf(1))
	want := Stats{Callbacks: 3, CanceledPops: 1, PeakDepth: 4, PeakPending: 4}
	if got := k.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestNetStatsPacketHops counts a 6-hop delivery: one tx-done and one
// arrival per hop.
func TestNetStatsPacketHops(t *testing.T) {
	n, ft := buildNet(t, func(*Packet) {})
	n.Send(&Packet{SizeBits: 1500 * 8, Route: hostRoute(ft, 0, 8, 0)})
	n.K.Run(math.Inf(1))
	if s := n.K.Stats(); s.TxDone != 6 || s.Arrivals != 6 || s.Callbacks != 0 {
		t.Fatalf("Stats = %+v, want 6 tx-done and 6 arrivals", s)
	}
}

// TestKernelAfterStepAllocs: a warm kernel schedules and fires a
// pre-built callback without allocating.
func TestKernelAfterStepAllocs(t *testing.T) {
	var k Kernel
	noop := func() {}
	k.After(0, noop)
	k.Step()
	if a := testing.AllocsPerRun(100, func() {
		k.After(0, noop)
		k.Step()
	}); a != 0 {
		t.Fatalf("After+Step allocates %g times, want 0", a)
	}
}

// TestNetSendAllocs: a warm net carries a pooled packet over a 6-hop
// route to delivery without allocating.
func TestNetSendAllocs(t *testing.T) {
	delivered := 0
	n, ft := buildNet(t, func(*Packet) { delivered++ })
	route := hostRoute(ft, 0, 8, 0)
	send := func() {
		p := n.NewPacket()
		p.SizeBits, p.Route = 1500*8, route
		n.Send(p)
		n.K.Run(math.Inf(1))
	}
	send()
	if a := testing.AllocsPerRun(100, send); a != 0 {
		t.Fatalf("Send over 6 hops allocates %g times, want 0", a)
	}
	if delivered != 102 {
		t.Fatalf("delivered %d packets, want 102", delivered)
	}
}

// TestNegativeDelaysClampToNow: a negative delay, serialization time or
// propagation delay schedules at the current time, as After always did,
// so the queue never receives an event in its past.
func TestNegativeDelaysClampToNow(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkDelay: -1e-4})
	if err != nil {
		t.Fatal(err)
	}
	route := hostRoute(ft, 0, 8, 0)
	run := func(send func(p *Packet), after func(float64, func()), finish func()) {
		for i, size := range []float64{-100, 12000, 0, 12000} {
			p := Packet{FlowID: i, SizeBits: size, Route: route}
			after(float64(i%2)*-1, func() { send(&p) })
		}
		finish()
	}
	var got, want []float64
	var n *Net
	n, err = NewNet(ft, 4, 1500*8, func(*Packet) { got = append(got, n.K.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	run(func(p *Packet) { q := n.NewPacket(); *q = *p; n.Send(q) },
		func(d float64, fn func()) { n.K.After(d, fn) }, func() { n.K.Run(math.Inf(1)) })
	var r *refNet
	r = newRefNet(ft.Graph(), 4, 1500*8, func(*Packet) { want = append(want, r.K.Now()) })
	run(r.Send, func(d float64, fn func()) { r.K.After(d, fn) }, func() { r.K.Run(math.Inf(1)) })
	if len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries at %v, want %v", got, want)
	}
}
