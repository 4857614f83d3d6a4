package simnet

import (
	"container/heap"

	"dard/internal/topology"
)

// refKernel is the original container/heap event kernel: one heap-
// allocated event and one closure per scheduled callback. It is kept
// as the oracle the typed kernel must match event for event. Its
// canceled-event compaction is left out: compaction frees memory but
// never changes which event fires next.
type refKernel struct {
	now    float64
	seq    int64
	events refHeap
}

type refEvent struct {
	at       float64
	seq      int64
	fn       func()
	canceled bool
}

type refTimer struct{ ev *refEvent }

func (t refTimer) Cancel() {
	if t.ev != nil {
		t.ev.canceled = true
	}
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (k *refKernel) Now() float64 { return k.now }

func (k *refKernel) After(d float64, fn func()) refTimer {
	if d < 0 {
		d = 0
	}
	k.seq++
	ev := &refEvent{at: k.now + d, seq: k.seq, fn: fn}
	heap.Push(&k.events, ev)
	return refTimer{ev}
}

func (k *refKernel) Step() bool {
	for len(k.events) > 0 {
		ev := heap.Pop(&k.events).(*refEvent)
		if ev.canceled {
			continue
		}
		k.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (k *refKernel) Run(until float64) {
	for len(k.events) > 0 {
		next := k.events[0]
		if next.canceled {
			heap.Pop(&k.events)
			continue
		}
		if next.at > until {
			return
		}
		heap.Pop(&k.events)
		k.now = next.at
		next.fn()
	}
}

// refNet is the original packet engine over refKernel: every hop
// schedules a closure for the serialization and another for the
// propagation. Packets are plain values the caller owns.
type refNet struct {
	K       *refKernel
	links   []refLink
	deliver func(*Packet)
}

type refLink struct {
	rate, delay, bufBits float64
	queueBits            float64
	queue                []*Packet
	busy, down           bool
	bitsSent             float64
	drops, failDrops     int64
}

func newRefNet(g *topology.Graph, bufferPackets int, mtuBits float64, deliver func(*Packet)) *refNet {
	n := &refNet{K: &refKernel{}, links: make([]refLink, g.NumLinks()), deliver: deliver}
	for i := range n.links {
		l := g.Link(topology.LinkID(i))
		n.links[i] = refLink{rate: l.Capacity, delay: l.Delay, bufBits: float64(bufferPackets) * mtuBits}
	}
	return n
}

func (n *refNet) Send(p *Packet) {
	if len(p.Route) == 0 {
		n.K.After(0, func() { n.deliver(p) })
		return
	}
	p.Hop = 0
	n.enqueue(p)
}

func (n *refNet) enqueue(p *Packet) {
	ls := &n.links[p.Route[p.Hop]]
	if ls.down {
		ls.failDrops++
		return
	}
	if ls.queueBits+p.SizeBits > ls.bufBits {
		ls.drops++
		return
	}
	ls.queue = append(ls.queue, p)
	ls.queueBits += p.SizeBits
	if !ls.busy {
		n.transmitNext(p.Route[p.Hop])
	}
}

func (n *refNet) transmitNext(l topology.LinkID) {
	ls := &n.links[l]
	if len(ls.queue) == 0 {
		ls.busy = false
		return
	}
	ls.busy = true
	p := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.queueBits -= p.SizeBits
	ls.bitsSent += p.SizeBits
	n.K.After(p.SizeBits/ls.rate, func() {
		n.transmitNext(l)
		n.K.After(ls.delay, func() { n.arrive(p) })
	})
}

func (n *refNet) arrive(p *Packet) {
	p.Hop++
	if p.Hop >= len(p.Route) {
		n.deliver(p)
		return
	}
	n.enqueue(p)
}

func (n *refNet) SetLinkDown(l topology.LinkID, down bool) {
	ls := &n.links[l]
	if ls.down == down {
		return
	}
	ls.down = down
	if down {
		ls.failDrops += int64(len(ls.queue))
		ls.queue = ls.queue[:0]
		ls.queueBits = 0
	}
}
