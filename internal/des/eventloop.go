// Package des is the repository's deterministic discrete-event simulation
// core: timed callbacks on a virtual clock.
//
// The single global virtual clock of package vclock is enough for the
// paper's strictly synchronous single-client executions, but studying
// contention — several applications sharing one GPU server, the paper's
// declared future work — needs genuinely concurrent virtual timelines, and
// so do the scheduler's tenant mixes and the load generator's 10^5–10^6
// simulated sessions. A modeled thread of control is a chain of callbacks,
// each scheduling the next; there is no goroutine per process.
//
// The pending callbacks wait in a monotone radix queue: no event is ever
// scheduled before the one that fired last, so each is filed by the highest
// bit in which its (time, schedule order) key differs from that last key,
// and a timer moves only towards lower buckets until it fires. One pending
// timer waits in front of the queue instead: a renewal process's next
// event is nearly always the earliest scheduled, and it fires from there
// without touching a bucket.
package des

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// EventLoop holds only its pending callbacks, in a front slot and a radix
// queue of 128 buckets over one slab of timers, so a million-session run
// is a few million bucket operations on one stack. Events fire in (time,
// schedule order), so two runs that schedule the same callbacks produce
// identical timelines.
type EventLoop struct {
	now     time.Duration
	seq     int64
	running bool
	stopped bool

	// front is the slot + 1 of the timer held in front of the queue (0:
	// none), and frontAt, frontSeq its key. A new timer takes the front
	// when it is empty or when the new timer is strictly earlier than the
	// one there, which is filed into the queue; a tie goes behind, its seq
	// being larger.
	front             int32
	frontAt, frontSeq uint64

	// lastAt and lastSeq are the key of the timer that fired last (zero
	// before the first); every pending key is above it.
	lastAt, lastSeq uint64
	// buckets[i] holds the pending timers whose key differs from the last
	// key in bit i and in no higher bit, counting the 64 bits of seq first
	// and the 64 of at above them; occupied has bit i set when buckets[i]
	// holds any.
	buckets  [128]bucket
	occupied [2]uint64
	// slab holds the timers; a free slot's arg links to the next free
	// slot, and freeSlot is the first free slot + 1 (0: none is free).
	slab     slab
	freeSlot int32
	// freeBlock lists the blocks no bucket holds, linked through next;
	// poolBlocks counts the blocks allocated so far.
	freeBlock  *block
	poolBlocks int
}

// bucket holds its earliest timer apart, with that timer's key, and lists
// the slots of the others in an unrolled list of blocks: head is the
// block being filled, which holds n slots, and the blocks linked behind it
// are full. A bucket holding one timer holds no block.
type bucket struct {
	minAt, minSeq uint64
	min, n        int32
	head          *block
}

// blockLen is the number of slab slots one block of a bucket's list holds.
const blockLen = 64

type block struct {
	slot [blockLen]int32
	next *block
}

// NewEventLoop returns an empty loop at virtual time zero.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now returns the current virtual time.
func (l *EventLoop) Now() time.Duration { return l.now }

// At schedules fn to run at now+delay. Negative delays are clamped to now,
// and a time past the largest time.Duration saturates to it. Callbacks may
// schedule further callbacks; ties fire in schedule order.
func (l *EventLoop) At(delay time.Duration, fn func()) {
	if fn == nil {
		panic("des: EventLoop.At with nil callback")
	}
	l.schedule(delay, thunk(fn), 0)
}

// AtArg schedules fn(arg) to run at now+delay, like At. A callback bound
// once and handed its event's data as arg lets a caller schedule many
// distinct events without building a closure for each.
func (l *EventLoop) AtArg(delay time.Duration, fn func(int64), arg int64) {
	if fn == nil {
		panic("des: EventLoop.AtArg with nil callback")
	}
	l.schedule(delay, argFunc(fn), arg)
}

func (l *EventLoop) schedule(delay time.Duration, fn callback, arg int64) {
	at := l.now
	if delay > 0 {
		at += delay
		if at < l.now {
			at = math.MaxInt64
		}
	}
	l.seq++
	if l.freeSlot == 0 {
		l.freeSlot = l.slab.grow() + 1
	}
	slot := l.freeSlot - 1
	t := l.slab.at(slot)
	l.freeSlot = int32(t.arg)
	*t = timer{at: at, seq: l.seq, fn: fn, arg: arg}
	key, seq := uint64(at), uint64(l.seq)
	switch {
	case l.front == 0:
	case key < l.frontAt:
		l.file(l.front-1, l.frontAt, l.frontSeq)
	default:
		l.file(slot, key, seq)
		return
	}
	l.front, l.frontAt, l.frontSeq = slot+1, key, seq
}

// Stop makes Run return before firing the next callback. Pending events
// stay queued; a subsequent Run resumes from them.
func (l *EventLoop) Stop() { l.stopped = true }

// Run fires callbacks in timestamp order until none remain (or Stop is
// called from within one), returning the final virtual time.
func (l *EventLoop) Run() time.Duration {
	if l.running {
		panic("des: EventLoop.Run reentered")
	}
	l.running = true
	l.stopped = false
	defer func() { l.running = false }()
	for (l.front != 0 || l.occupied != [2]uint64{}) && !l.stopped {
		e := l.pop()
		if e.at < l.now {
			panic(fmt.Sprintf("des: event loop time went backwards: %v -> %v", l.now, e.at))
		}
		l.now = e.at
		e.fn.fire(e.arg)
	}
	return l.now
}

// timer is one pending callback: fn fires with arg.
type timer struct {
	at  time.Duration
	seq int64
	fn  callback
	arg int64
}

// callback is what a timer fires. Both kinds are single func values, which
// an interface holds without allocating.
type callback interface{ fire(arg int64) }

type thunk func()

func (f thunk) fire(int64) { f() }

type argFunc func(int64)

func (f argFunc) fire(arg int64) { f(arg) }

// file puts slot, whose timer has key (at, seq), in its bucket: the one of
// the highest bit in which the key, read as one 128-bit number, differs
// from the last key. A key equal to the last one is the timer that just
// fired and is never filed.
func (l *EventLoop) file(slot int32, at, seq uint64) {
	var i int
	if d := at ^ l.lastAt; d != 0 {
		i = 63 + bits.Len64(d)
	} else {
		i = bits.Len64(seq^l.lastSeq) - 1
	}
	b := &l.buckets[i]
	if w, bit := &l.occupied[i>>6], uint64(1)<<(i&63); *w&bit == 0 {
		*w |= bit
		*b = bucket{minAt: at, minSeq: seq, min: slot}
		return
	}
	if at < b.minAt || at == b.minAt && seq < b.minSeq {
		slot, b.min, b.minAt, b.minSeq = b.min, slot, at, seq
	}
	if b.head == nil || b.n == blockLen {
		b.head, b.n = l.newBlock(b.head), 0
	}
	b.head.slot[b.n] = slot
	b.n++
}

// pop removes and returns the earliest timer. The queue's earliest is the
// one the lowest occupied bucket holds apart, since that bucket's keys
// share more leading bits with the last key than any other bucket's; the
// front timer fires instead when it precedes that one, and leaves the last
// key as it was: the queued keys stay above it, and so does every key
// scheduled later, being above the front's. A timer fired from the queue
// makes its key the last key, and the rest of its bucket, which agrees
// with the new key above the bucket's bit, files into lower buckets; the
// buckets above keep their timers, which differ from the new key where
// they differed from the old.
func (l *EventLoop) pop() timer {
	i := bits.TrailingZeros64(l.occupied[0])
	if l.occupied[0] == 0 {
		i = 64 + bits.TrailingZeros64(l.occupied[1])
	}
	if f := l.front; f != 0 && (i == len(l.buckets) || l.frontFirst(i)) {
		l.front = 0
		return l.take(f - 1)
	}
	l.occupied[i>>6] &^= 1 << (i & 63)
	b := l.buckets[i]
	l.lastAt, l.lastSeq = b.minAt, b.minSeq
	for blk, n := b.head, b.n; blk != nil; blk, n = blk.next, blockLen {
		for _, s := range blk.slot[:n] {
			t := l.slab.at(s)
			l.file(s, uint64(t.at), uint64(t.seq))
		}
	}
	l.freeBlocks(b.head)
	return l.take(b.min)
}

// frontFirst reports whether the front timer precedes the earliest timer
// of bucket i.
func (l *EventLoop) frontFirst(i int) bool {
	b := &l.buckets[i]
	return l.frontAt < b.minAt || l.frontAt == b.minAt && l.frontSeq < b.minSeq
}

// take frees slot and returns the timer it held. The slot is zeroed so the
// fired callback's closure is not kept reachable.
func (l *EventLoop) take(slot int32) timer {
	t := l.slab.at(slot)
	fired := *t
	*t = timer{arg: int64(l.freeSlot)}
	l.freeSlot = slot + 1
	return fired
}

// newBlock takes a block from the free list, doubling the pool when none
// is left, and links next behind it.
func (l *EventLoop) newBlock(next *block) *block {
	if l.freeBlock == nil {
		grown := make([]block, max(l.poolBlocks, firstChunk))
		l.poolBlocks += len(grown)
		for j := range grown[1:] {
			grown[j].next = &grown[j+1]
		}
		l.freeBlock = &grown[0]
	}
	blk := l.freeBlock
	l.freeBlock, blk.next = blk.next, next
	return blk
}

// freeBlocks returns the chain of blocks that blk heads to the free list.
// No block of a bucket being re-filed is taken while the walk reads it:
// file takes blocks only from the free list, which gets them after the
// walk.
func (l *EventLoop) freeBlocks(blk *block) {
	for blk != nil {
		next := blk.next
		blk.next, l.freeBlock = l.freeBlock, blk
		blk = next
	}
}

// slab holds the timers in chunks that never move: chunk c holds
// firstChunk<<c of them, so each growth doubles the capacity without
// copying, and the bytes allocated are those of the final capacity.
type slab struct{ chunks [28][]timer }

const (
	firstChunkBits = 4
	firstChunk     = 1 << firstChunkBits
)

// at returns the timer in slot i.
func (s *slab) at(i int32) *timer {
	u := uint32(i) + firstChunk
	c := bits.Len32(u) - firstChunkBits - 1
	return &s.chunks[c][u-firstChunk<<c]
}

// grow adds a chunk as large as all before it together, links its slots
// into a free list (each arg the next slot + 1, the last 0) and returns
// the first.
func (s *slab) grow() int32 {
	c := 0
	for s.chunks[c] != nil {
		c++
	}
	chunk := make([]timer, firstChunk<<c)
	first := int64(len(chunk) - firstChunk)
	for j := range chunk[:len(chunk)-1] {
		chunk[j].arg = first + int64(j) + 2
	}
	s.chunks[c] = chunk
	return int32(first)
}
