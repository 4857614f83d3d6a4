// Package simnet is a discrete-event packet-level network simulator: the
// ns-2 substitute used for the paper's TCP-sensitive experiments (testbed
// CDFs, TeXCP reordering and retransmission comparisons). Links model
// serialization at line rate, propagation delay, and finite drop-tail
// queues; packets carry explicit source routes, matching the paper's
// simulator ("we use source routing to assign a path to a flow", §3.2).
package simnet

import (
	"math"

	"dard/internal/topology"
)

// eventKind selects what a fired event does. Packet hops are typed
// events handled by the Net directly; everything else is a callback.
type eventKind uint8

const (
	// kindCallback runs the function in callback slot arg.
	kindCallback eventKind = iota
	// kindTxDone ends the serialization of link arg's packet.
	kindTxDone
	// kindArrive delivers the head of link arg's in-flight FIFO to the
	// link's far end.
	kindArrive
)

// event is one scheduled record. It holds no pointers, so the queue is
// plain value slices the garbage collector never scans.
type event struct {
	at   float64
	seq  int64
	arg  int32
	kind eventKind
}

// before is the kernel's total order: time, then scheduling sequence.
// Times are never negative (the kernel clamps delays at zero), so their
// bits order like the times themselves, and the order stays total even
// for a NaN time.
func (e event) before(o event) bool {
	a, b := math.Float64bits(e.at), math.Float64bits(o.at)
	return a < b || a == b && e.seq < o.seq
}

// slot holds a scheduled callback until it fires or its cancellation is
// popped. gen advances every time the slot is released, so a Timer for
// an earlier occupant can never touch a later one.
type slot struct {
	fn       func()
	gen      uint32
	canceled bool
}

// Timer is a handle to a scheduled callback that can be canceled.
type Timer struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Cancel prevents the callback from firing; safe to call repeatedly, on
// the zero Timer, or on an already-fired timer (all no-ops). Canceled
// events stay queued until they are popped or the kernel compacts its
// queue; each cancellation is counted once so compaction can trigger when
// dead events dominate the queue.
func (t Timer) Cancel() {
	if t.k == nil {
		return
	}
	s := &t.k.slots[t.slot]
	if s.gen != t.gen || s.canceled {
		return
	}
	s.canceled = true
	s.fn = nil
	t.k.canceled++
	t.k.maybeCompact()
}

// Stats are the kernel's deterministic work counters: counts, never
// clock reads, so two runs of the same simulation report equal values.
type Stats struct {
	// Callbacks, TxDone and Arrivals count fired events by kind.
	Callbacks int64
	TxDone    int64
	Arrivals  int64
	// CanceledPops counts canceled callbacks discarded when they
	// reached the head of the queue; Compacted counts those removed by
	// compaction instead.
	CanceledPops int64
	Compacted    int64
	// PeakDepth is the most events the queue held at once. A link
	// contributes at most one tx-done and one arrival, however many of
	// its packets are in flight.
	PeakDepth int
	// PeakPending is the most events pending at once, counting the
	// in-flight packets held behind their link's FIFO head: what a
	// kernel with one queue entry per packet hop would have held.
	PeakPending int
}

// Kernel is the event loop. The zero value is ready to use.
type Kernel struct {
	now    float64
	seq    int64
	events eventQueue

	slots    []slot
	free     []int32 // released callback slots
	canceled int     // queued callbacks whose timers were canceled

	// net handles the typed packet events; nil for a bare kernel.
	net *Net
	// parked counts in-flight packets waiting behind their link's FIFO
	// head; they are pending events that are not (yet) in the queue.
	parked int

	stats Stats
}

// compactMin is the queue size below which compaction is not worth the
// rebuild; tiny queues drain canceled events quickly on their own.
const compactMin = 64

// maybeCompact drops the queue's canceled events once they outnumber
// the live ones, keeping long runs that churn timers (every ACK re-arms
// a retransmission timer) at O(live) memory instead of O(ever
// scheduled).
func (k *Kernel) maybeCompact() {
	if k.events.n < compactMin || k.canceled <= k.events.n/2 {
		return
	}
	k.events.filter(func(ev event) bool {
		if !k.dead(ev) {
			return false
		}
		k.release(ev.arg)
		k.stats.Compacted++
		return true
	})
	k.canceled = 0
}

// Now returns the current simulation time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// After schedules fn to run d seconds from now and returns a cancellable
// handle. Events fire in (time, scheduling order). With a pre-built fn,
// a warm kernel schedules without allocating.
func (k *Kernel) After(d float64, fn func()) Timer {
	var i int32
	if n := len(k.free); n > 0 {
		i = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		i = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.slots[i].fn = fn
	k.push(event{at: k.in(d), seq: k.reserve(), arg: i, kind: kindCallback})
	return Timer{k: k, slot: i, gen: k.slots[i].gen}
}

// in returns the time d seconds from now; a negative d means now, so
// nothing is ever scheduled into the past.
func (k *Kernel) in(d float64) float64 {
	if d < 0 {
		d = 0
	}
	return k.now + d
}

// reserve hands out the next scheduling sequence number.
func (k *Kernel) reserve() int64 {
	k.seq++
	return k.seq
}

// release frees a callback slot and invalidates its timers.
func (k *Kernel) release(i int32) {
	s := &k.slots[i]
	s.fn = nil
	s.canceled = false
	s.gen++
	k.free = append(k.free, i)
}

// dead reports whether a queued event is a canceled callback.
func (k *Kernel) dead(ev event) bool {
	return ev.kind == kindCallback && k.slots[ev.arg].canceled
}

// head locates the earliest live event, discarding the canceled events
// ahead of it; ok is false once the queue is empty.
func (k *Kernel) head() (b, j int, ok bool) {
	for k.events.n > 0 {
		b, j = k.events.locate()
		ev := k.events.buckets[b][j]
		if !k.dead(ev) {
			return b, j, true
		}
		k.events.remove(b, j)
		k.release(ev.arg)
		k.canceled--
		k.stats.CanceledPops++
	}
	return 0, 0, false
}

// Step runs the next pending event; it reports false when none remain.
func (k *Kernel) Step() bool {
	b, j, ok := k.head()
	if ok {
		k.fire(k.events.extract(b, j))
	}
	return ok
}

// Run processes events until the queue drains or time would exceed until.
func (k *Kernel) Run(until float64) {
	for {
		b, j, ok := k.head()
		if !ok || k.events.buckets[b][j].at > until {
			return
		}
		k.fire(k.events.extract(b, j))
	}
}

// fire advances the clock to ev and dispatches it by kind.
func (k *Kernel) fire(ev event) {
	k.now = ev.at
	switch ev.kind {
	case kindTxDone:
		k.stats.TxDone++
		k.net.txDone(topology.LinkID(ev.arg))
	case kindArrive:
		k.stats.Arrivals++
		k.net.arrive(topology.LinkID(ev.arg))
	default:
		// Release before calling, so fn may reuse the slot and a Cancel
		// of its own (now fired) timer is a no-op.
		fn := k.slots[ev.arg].fn
		k.release(ev.arg)
		k.stats.Callbacks++
		fn()
	}
}

// Pending reports the number of events not yet fired, counting canceled
// callbacks still queued and in-flight packets waiting behind their
// link's FIFO head.
func (k *Kernel) Pending() int { return k.events.n + k.parked }

// Stats returns the kernel's work counters so far.
func (k *Kernel) Stats() Stats { return k.stats }

func (k *Kernel) notePending() {
	if p := k.events.n + k.parked; p > k.stats.PeakPending {
		k.stats.PeakPending = p
	}
}

// push queues ev.
func (k *Kernel) push(ev event) {
	k.events.push(ev)
	if k.events.n > k.stats.PeakDepth {
		k.stats.PeakDepth = k.events.n
	}
	k.notePending()
}
