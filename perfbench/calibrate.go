package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// refCalS is the calibration loop's typical time on the reference host,
// a 2-vCPU Intel Xeon (Sapphire Rapids) VM on a shared host, with Go
// 1.24. Host times are reported as seconds at that speed.
const refCalS = 0.125

// One calibration sample is calRounds rounds. A round clears the 64 MB
// memory part and makes calScattered read-modify-writes in it, then makes
// calCoreSteps steps of event-queue and hash-table work in the 1 MB core
// part. On the reference host the core half takes somewhat longer.
const (
	calRounds    = 3
	calScattered = 330_000
	calCoreSteps = 200_000
)

// calPerPoint is how many samples are taken, back to back, at each point
// of a run where the calibrator is sampled.
const calPerPoint = 2

// The loop's memory, in words. The memory part, 64 MB, is far past the
// per-core L2 and a large part of the shared L3, so it competes for the
// shared cache and memory bandwidth. The core part — an event queue of
// calQueueLen keys and a hash table of calSlots counters — fits in the
// per-core L2, so it competes for the core.
const (
	calMemWords = 1 << 23
	calQueueLen = 1 << 12
	calSlots    = 1 << 16
	calWords    = calMemWords + calQueueLen + calSlots
)

// calibrator measures how fast the host is running right now. On a
// shared host the speed one process gets drifts by a third or more over
// minutes, with its neighbours' load on the shared cache, memory and
// cores, and wall times drift with it. The benchmark times a fixed loop
// between its measured phases and scales each host time by refCalS over
// the loop's median time in the same run, which cancels the drift common
// to both.
//
// The loop mixes the two kinds of work the simulators' time goes to:
// scattered access to memory that misses the private caches, and event
// queue and hash-table work on data that stays in them. On the reference
// host, a loop of the first kind alone tracked the packet engine's run
// time as the host's speed changed (over a five-minute stretch in which
// that time swung by 29%, their ratio swung by 5%), but missed slow
// spells of the p=16 flow workload that spared it.
//
// The memory is mapped outside the Go heap for each sample point and
// unmapped after it, so the loop allocates nothing on the heap, leaves
// the garbage collector's pacing alone and holds no memory while the
// measured phases run. It calls no code of the module, so a change to
// the module cannot move it.
type calibrator struct {
	samples []float64
}

// calSink keeps the loop's result live.
var calSink uint64

// sample maps the loop's memory, takes calPerPoint samples, records each
// time and unmaps the memory. A nil calibrator does nothing.
func (c *calibrator) sample() error {
	if c == nil {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_POPULATE)
	if err != nil {
		return fmt.Errorf("calibration memory: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calWords)
	mem := words[:calMemWords]
	queue := words[calMemWords : calMemWords : calMemWords+calQueueLen]
	table := words[calMemWords+calQueueLen:]
	for range calPerPoint {
		t := time.Now()
		for range calRounds {
			clear(mem)
			calSink += calScatter(mem, calScattered)
			calSink += calCore(queue, table, calCoreSteps)
		}
		c.samples = append(c.samples, time.Since(t).Seconds())
	}
	if err := syscall.Munmap(b); err != nil {
		return fmt.Errorf("calibration memory: %w", err)
	}
	return nil
}

// scale is the factor that turns a wall time measured in this run into
// seconds at reference speed.
func (c *calibrator) scale() float64 {
	return refCalS / median(c.samples)
}

// calScatter makes n read-modify-writes at the places a fixed xorshift
// sequence picks, so every call touches the same places in the same
// order.
func calScatter(mem []uint64, n int) uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(mem))
		acc += mem[j]
		mem[j] = acc
	}
	return acc
}

// calCore makes n steps, each pushing a pseudo-random key onto a binary
// min-heap in queue (popping the least first when it is full) and adding
// to a hash-table slot. It starts from an empty queue, so every call does
// the same work.
func calCore(queue, table []uint64, n int) uint64 {
	q := queue[:0]
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(q) == cap(q) {
			acc += q[0]
			q = popMin(q)
		}
		q = pushKey(q, x>>40)
		table[(x*0x9e3779b97f4a7c15)>>48%uint64(len(table))] += x
	}
	return acc
}

// pushKey appends k and restores the min-heap order.
func pushKey(q []uint64, k uint64) []uint64 {
	q = append(q, k)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

// popMin removes the least key.
func popMin(q []uint64) []uint64 {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && q[l] < q[m] {
			m = l
		}
		if r := l + 1; r < n && q[r] < q[m] {
			m = r
		}
		if m == i {
			return q
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
