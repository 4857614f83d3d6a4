package simnet

import (
	"fmt"

	"dard/internal/topology"
	"dard/internal/trace"
)

// Packet is one simulated packet travelling a source route.
//
// Ownership: Send hands the packet to the Net, which returns it to its
// pool once it is delivered or dropped. The deliver callback may read
// the packet only until it returns; nobody may keep a *Packet past
// that. Route is shared, never copied or modified: the Net only reads
// it, so senders can pass the same route slice to every packet.
type Packet struct {
	// FlowID identifies the transport connection.
	FlowID int
	// Seq is the segment number for data packets.
	Seq int
	// Ack marks an acknowledgment; AckNum is the cumulative ACK.
	Ack    bool
	AckNum int
	// SizeBits is the wire size including headers.
	SizeBits float64
	// Route is the full host-to-host source route; Hop indexes the link
	// currently being traversed.
	Route []topology.LinkID
	Hop   int
	// Retx marks a retransmitted segment (for Figure 14's metric).
	Retx bool
}

// DefaultBufferPackets sizes each link queue when the config leaves it
// zero; the paper sets queues to the delay-bandwidth product, which for
// 1 Gbps and datacenter RTTs is of this order.
const DefaultBufferPackets = 64

// linkState is a link's transmitter, drop-tail queue, and wire.
type linkState struct {
	rate    float64 // bits/s
	delay   float64 // seconds
	bufBits float64 // queue capacity in bits

	queueBits float64
	queue     ring[*Packet] // waiting to serialize
	// tx is the packet being serialized; nil while the link is idle.
	tx *Packet
	// wire holds the packets propagating to the far end, in arrival
	// order; only its head has an event in the kernel's queue.
	wire ring[flight]

	// BitsSent accumulates transmitted bits (utilization accounting for
	// TeXCP probes).
	bitsSent float64
	drops    int64

	// down marks a failed link: arriving packets are dropped and the
	// queue was flushed when the failure hit. failDrops counts both.
	down      bool
	failDrops int64
}

// flight is a packet on a link's wire with the arrival event reserved
// for it when its serialization finished.
type flight struct {
	p   *Packet
	at  float64
	seq int64
}

// ring is a growable FIFO ring buffer; its capacity stays a power of two.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// front returns the oldest element; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// Net couples a kernel with a topology's links and delivers packets to
// per-flow endpoints.
type Net struct {
	K    *Kernel
	topo topology.Network
	g    *topology.Graph

	links []linkState
	// pool holds released packets for NewPacket.
	pool []*Packet
	// deliver routes a packet that reached the end of its source route.
	deliver func(*Packet)
	// tracer observes queue drops; never nil (Nop by default).
	tracer trace.Tracer

	// PacketHeaderBits is added to every transmitted segment; 40 bytes
	// of TCP/IP header by default.
	PacketHeaderBits float64
}

// NewNet builds the packet-level runtime for a topology. bufferPackets
// sizes every queue in maximum-size packets (0 means
// DefaultBufferPackets); deliver receives packets that completed their
// route.
func NewNet(topo topology.Network, bufferPackets int, mtuBits float64, deliver func(*Packet)) (*Net, error) {
	if topo == nil {
		return nil, fmt.Errorf("simnet: nil topology")
	}
	if deliver == nil {
		return nil, fmt.Errorf("simnet: nil deliver callback")
	}
	if bufferPackets <= 0 {
		bufferPackets = DefaultBufferPackets
	}
	if mtuBits <= 0 {
		mtuBits = 1500 * 8
	}
	g := topo.Graph()
	n := &Net{
		topo:             topo,
		g:                g,
		links:            make([]linkState, g.NumLinks()),
		deliver:          deliver,
		tracer:           trace.Nop{},
		PacketHeaderBits: 40 * 8,
	}
	n.K = &Kernel{net: n}
	for i := range n.links {
		l := g.Link(topology.LinkID(i))
		n.links[i] = linkState{
			rate:    l.Capacity,
			delay:   l.Delay,
			bufBits: float64(bufferPackets) * mtuBits,
		}
	}
	return n, nil
}

// Topology returns the underlying network.
func (n *Net) Topology() topology.Network { return n.topo }

// SetTracer installs an event tracer; nil restores the no-op default.
func (n *Net) SetTracer(t trace.Tracer) { n.tracer = trace.OrNop(t) }

// NewPacket returns a zeroed packet, reusing one the Net released
// when there is one. Send takes it back.
func (n *Net) NewPacket() *Packet {
	if k := len(n.pool); k > 0 {
		p := n.pool[k-1]
		n.pool = n.pool[:k-1]
		return p
	}
	return &Packet{}
}

// release returns a delivered or dropped packet to the pool.
func (n *Net) release(p *Packet) {
	*p = Packet{}
	n.pool = append(n.pool, p)
}

// Send injects a packet at the head of its route and takes ownership of
// it (see Packet).
func (n *Net) Send(p *Packet) {
	if len(p.Route) == 0 {
		// Degenerate same-host delivery.
		n.K.After(0, func() { n.deliverAndRelease(p) })
		return
	}
	p.Hop = 0
	n.enqueue(p)
}

func (n *Net) deliverAndRelease(p *Packet) {
	n.deliver(p)
	n.release(p)
}

// enqueue places the packet on its current link's queue, dropping it if
// the link is down or the drop-tail buffer is full.
func (n *Net) enqueue(p *Packet) {
	l := p.Route[p.Hop]
	ls := &n.links[l]
	if ls.down {
		n.failDrop(l, p)
		return
	}
	if ls.queueBits+p.SizeBits > ls.bufBits {
		ls.drops++
		if n.tracer.Enabled() {
			n.tracer.Emit(trace.Event{
				T: n.K.Now(), Kind: trace.KindDrop,
				Flow: int32(p.FlowID), Link: int32(l), A: int64(p.Seq),
			})
		}
		n.release(p)
		return // drop-tail
	}
	ls.queue.push(p)
	ls.queueBits += p.SizeBits
	if ls.tx == nil {
		n.transmitNext(l)
	}
}

// transmitNext starts serializing the head-of-line packet of a link; its
// tx-done event fires when the last bit is on the wire.
func (n *Net) transmitNext(l topology.LinkID) {
	ls := &n.links[l]
	if ls.queue.n == 0 {
		return
	}
	p := ls.queue.pop()
	ls.tx = p
	ls.queueBits -= p.SizeBits
	ls.bitsSent += p.SizeBits
	k := n.K
	k.push(event{at: k.in(p.SizeBits / ls.rate), seq: k.reserve(), arg: int32(l), kind: kindTxDone})
}

// txDone ends a serialization: the link starts its next packet, then the
// finished one propagates. Reserving the next packet's tx-done sequence
// before this packet's arrival keeps the (time, sequence) order of every
// event, ties included, exactly that of scheduling the two in turn.
func (n *Net) txDone(l topology.LinkID) {
	ls := &n.links[l]
	p := ls.tx
	ls.tx = nil
	n.transmitNext(l)
	k := n.K
	f := flight{p: p, at: k.in(ls.delay), seq: k.reserve()}
	// Arrival times on a link are monotone (serializations end in order
	// and the delay is fixed), so the FIFO is in (at, seq) order and
	// only its head needs a queue entry.
	if ls.wire.n == 0 {
		k.push(event{at: f.at, seq: f.seq, arg: int32(l), kind: kindArrive})
	} else {
		k.parked++
		k.notePending()
	}
	ls.wire.push(f)
}

// arrive takes the head of a link's wire to the far end: the packet
// advances one hop or is delivered.
func (n *Net) arrive(l topology.LinkID) {
	ls := &n.links[l]
	p := ls.wire.pop().p
	if ls.wire.n > 0 {
		h := ls.wire.front()
		n.K.parked--
		n.K.push(event{at: h.at, seq: h.seq, arg: int32(l), kind: kindArrive})
	}
	p.Hop++
	if p.Hop >= len(p.Route) {
		n.deliverAndRelease(p)
		return
	}
	n.enqueue(p)
}

// failDrop loses a packet to a failed link and traces the loss with its
// own cause so recovery analysis can tell blackout losses from
// congestion drops.
func (n *Net) failDrop(l topology.LinkID, p *Packet) {
	n.links[l].failDrops++
	if n.tracer.Enabled() {
		n.tracer.Emit(trace.Event{
			T: n.K.Now(), Kind: trace.KindFailDrop,
			Flow: int32(p.FlowID), Link: int32(l), A: int64(p.Seq),
		})
	}
	n.release(p)
}

// SetLinkDown fails or repairs a directed link immediately. Failing a
// link flushes its queue deterministically, in FIFO order — every queued
// packet is lost and traced as a FailDrop — and drops all later arrivals
// until the link is repaired. A packet already serializing when the
// failure hits was committed before the cut and escapes onto the wire
// (packet-boundary failure semantics); repairing restores the nominal
// rate with an empty queue.
func (n *Net) SetLinkDown(l topology.LinkID, down bool) {
	ls := &n.links[l]
	if ls.down == down {
		return
	}
	ls.down = down
	if down {
		for ls.queue.n > 0 {
			n.failDrop(l, ls.queue.pop())
		}
		ls.queueBits = 0
	}
	if n.tracer.Enabled() {
		kind := trace.KindLinkRecover
		if down {
			kind = trace.KindLinkFail
		}
		n.tracer.Emit(trace.Event{T: n.K.Now(), Kind: kind, Flow: -1, Link: int32(l)})
	}
}

// LinkDown reports whether a directed link is currently failed.
func (n *Net) LinkDown(l topology.LinkID) bool { return n.links[l].down }

// FailDrops reports the packets a link has lost to failure so far
// (flushed on link-down plus arrivals while down).
func (n *Net) FailDrops(l topology.LinkID) int64 { return n.links[l].failDrops }

// Drops reports the packets dropped at a link's queue so far.
func (n *Net) Drops(l topology.LinkID) int64 { return n.links[l].drops }

// BitsSent reports the bits a link has transmitted so far (monotone
// counter; TeXCP probes sample it to estimate utilization).
func (n *Net) BitsSent(l topology.LinkID) float64 { return n.links[l].bitsSent }

// QueueBits reports the bits currently queued at a link.
func (n *Net) QueueBits(l topology.LinkID) float64 { return n.links[l].queueBits }
