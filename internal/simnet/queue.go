package simnet

import (
	"math"
	"math/bits"
)

// eventQueue is the kernel's priority queue: a radix heap on the
// 128-bit key (time bits, sequence). Event times are never negative, so
// an event's float64 time bits order like the time itself, and the
// key's unsigned order is exactly the kernel's (at, seq) order.
//
// A radix heap relies on the queue being monotone. Every key inserted
// lies above the key of the last event extracted, because an event is
// extracted only to fire it, and nothing is scheduled before the clock.
// Bucket i holds the events whose key first differs from that last key
// at bit i-1. Inserting is one XOR and a bit count. Extracting finds the
// lowest non-empty bucket, takes its minimum, and redistributes the rest
// of the bucket into lower buckets around the new last key. No chain of
// data-dependent comparisons is involved, unlike a binary heap's
// sift-down. Each event moves down a bounded number of times.
//
// Locating the minimum does not change the queue, so Run can look past
// its horizon. A canceled event is removed in place without becoming
// the last key. The last key therefore never passes the clock.
type eventQueue struct {
	lastAt, lastSeq uint64 // key of the last event extracted
	buckets         [129][]event
	nonEmpty        [3]uint64 // bit i set iff buckets[i] is non-empty
	n               int
}

// bucketCap is each bucket's initial capacity, carved from one arena so
// a warm queue grows no bucket for the odd event it briefly holds.
const bucketCap = 4

// bucketOf returns the bucket of ev relative to the last key.
func (q *eventQueue) bucketOf(ev *event) int {
	if x := math.Float64bits(ev.at) ^ q.lastAt; x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(uint64(ev.seq) ^ q.lastSeq)
}

func (q *eventQueue) add(ev event) {
	i := q.bucketOf(&ev)
	q.buckets[i] = append(q.buckets[i], ev)
	q.nonEmpty[i>>6] |= 1 << (i & 63)
}

// push inserts ev, whose key must lie above the last extracted key.
func (q *eventQueue) push(ev event) {
	if q.buckets[0] == nil {
		arena := make([]event, len(q.buckets)*bucketCap)
		for i := range q.buckets {
			q.buckets[i] = arena[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
	}
	q.add(ev)
	q.n++
}

// locate returns the bucket and index of the minimum without changing
// the queue; the queue must not be empty.
func (q *eventQueue) locate() (b, j int) {
	switch {
	case q.nonEmpty[0] != 0:
		b = bits.TrailingZeros64(q.nonEmpty[0])
	case q.nonEmpty[1] != 0:
		b = 64 + bits.TrailingZeros64(q.nonEmpty[1])
	default:
		b = 128 + bits.TrailingZeros64(q.nonEmpty[2])
	}
	bk := q.buckets[b]
	for i := 1; i < len(bk); i++ {
		if bk[i].before(bk[j]) {
			j = i
		}
	}
	return b, j
}

// remove deletes the event at (b, j) without moving the last key.
func (q *eventQueue) remove(b, j int) {
	bk := q.buckets[b]
	last := len(bk) - 1
	bk[j] = bk[last]
	q.buckets[b] = bk[:last]
	if last == 0 {
		q.nonEmpty[b>>6] &^= 1 << (b & 63)
	}
	q.n--
}

// extract removes and returns the minimum at (b, j), as located, making
// its key the last key.
func (q *eventQueue) extract(b, j int) event {
	bk := q.buckets[b]
	ev := bk[j]
	q.lastAt, q.lastSeq = math.Float64bits(ev.at), uint64(ev.seq)
	q.buckets[b] = bk[:0]
	q.nonEmpty[b>>6] &^= 1 << (b & 63)
	q.n--
	// The rest of bucket b lands in lower buckets; appending while bk is
	// read is safe because bucket b is not among them.
	for i := range bk {
		if i != j {
			q.add(bk[i])
		}
	}
	return ev
}

// filter drops every event for which drop reports true.
func (q *eventQueue) filter(drop func(event) bool) {
	for i := range q.buckets {
		b := q.buckets[i]
		live := b[:0]
		for _, ev := range b {
			if drop(ev) {
				q.n--
				continue
			}
			live = append(live, ev)
		}
		q.buckets[i] = live
		if len(live) == 0 {
			q.nonEmpty[i>>6] &^= 1 << (i & 63)
		}
	}
}
