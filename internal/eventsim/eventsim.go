// Package eventsim provides the discrete-event simulation core used by all
// PARCEL simulation substrates: a virtual clock, a deterministic event queue,
// and a seedable random source.
//
// Virtual time is represented as time.Duration since the start of the
// simulation. Events scheduled for the same instant fire in the order they
// were scheduled, which makes every simulation run bit-for-bit deterministic
// for a fixed seed.
package eventsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An event carries either a plain fn (Schedule/ScheduleAt) or an
// argument-taking afn+arg pair (ScheduleArgAt). The latter exists for
// zero-allocation hot paths: a package-level func(any) plus a pooled
// argument pointer schedules without materialising a closure, where a
// capturing closure would heap-allocate once per event.
//
//parcelvet:pooled
type Event struct {
	at     time.Duration
	fn     func()
	afn    func(any)
	arg    any
	cancel bool
}

// At returns the virtual time the event is scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was cancelled) is a no-op.
func (e *Event) Cancel() {
	e.cancel = true
	e.fn = nil
	e.afn = nil
	e.arg = nil
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// queued is one slot of the event queue. The (at, seq) key sits next to the
// Event pointer so sifting compares slice-local values instead of chasing a
// pointer per comparison; seq, the schedule order, lives only here.
type queued struct {
	at  time.Duration
	seq uint64
	e   *Event
}

// before is the queue's total order: earlier time first, then schedule order.
func (a *queued) before(b *queued) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of queued slots ordered by (at, seq). It
// is typed (no container/heap interface calls) and its sift loops are
// written out here; since (at, seq) is a total order, the pop sequence is
// fully determined by the pushes, whatever the heap layout.
type eventQueue []queued

func (q *eventQueue) push(e *Event, seq uint64) {
	x := queued{at: e.at, seq: seq, e: e}
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0].e
	n := len(h) - 1
	x := h[n]
	h[n] = queued{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&x) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = x
	}
	*q = h
	//parcelvet:allow pooldiscipline(queue plumbing: the popped Event goes straight to Step, which runs and forgets it; arena blocks are never recycled mid-run)
	return top
}

// eventBlockSize is how many Events one arena block holds. Events are the
// dominant allocation of a simulation run (two-plus per packet), so they are
// carved out of append-only blocks: one heap allocation per block instead of
// one per event. Blocks are never reused within a simulation, which keeps
// outstanding *Event handles (e.g. a held cancellation timer) valid for the
// simulator's whole lifetime.
const eventBlockSize = 256

// Pools recycles event arena blocks across simulators. A batch engine that
// runs many page simulations per worker hands every simulator the same Pools
// so finished runs return their blocks for the next run to carve, instead of
// re-allocating the arena per page. Pools is owned by one goroutine at a
// time (the worker driving its batch); it is not safe for concurrent use.
type Pools struct {
	blocks [][]Event
}

// NewPools returns an empty block pool.
func NewPools() *Pools { return &Pools{} }

func (p *Pools) getBlock() []Event {
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks[n-1] = nil
		p.blocks = p.blocks[:n-1]
		return b
	}
	return make([]Event, eventBlockSize)
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not usable; construct with New.
//
// A Simulator is owned by a single goroutine: it is not safe for concurrent
// use, and every Schedule/Step/Run call must come from the goroutine that is
// driving the simulation. Parallel experiment runners get their concurrency
// by building one private Simulator (topology) per task, never by sharing
// one. Build with -tags simdebug to turn this contract into a runtime check
// that panics on cross-goroutine use instead of corrupting the event heap.
type Simulator struct {
	now    time.Duration
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	inStep bool

	arena  []Event   // current arena block; see eventBlockSize
	blocks [][]Event // every block carved this run, for Release
	pools  *Pools    // shared block pool; nil for a private simulator

	owner int64 // owning goroutine id; maintained only under -tags simdebug
}

// New returns a simulator whose clock starts at zero and whose random source
// is seeded with seed.
func New(seed int64) *Simulator { return NewWithPools(seed, nil) }

// NewWithPools is New drawing event arena blocks from p (nil for a private
// arena). Pair with Release to return the blocks when the run is over.
func NewWithPools(seed int64, p *Pools) *Simulator {
	s := &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		queue: make(eventQueue, 0, eventBlockSize),
		pools: p,
	}
	s.claimOwner()
	return s
}

// newEvent carves an event out of the arena.
func (s *Simulator) newEvent() *Event {
	if len(s.arena) == 0 {
		var b []Event
		if s.pools != nil {
			b = s.pools.getBlock()
		} else {
			b = make([]Event, eventBlockSize)
		}
		s.blocks = append(s.blocks, b)
		s.arena = b
	}
	e := &s.arena[0]
	s.arena = s.arena[1:]
	return e
}

// Release returns every arena block this simulator carved to its shared
// pool. It is only legal once the simulation is over: the event queue must
// be drained, and the caller must have dropped every outstanding *Event
// handle — blocks are zeroed and handed to the next simulator, so a retained
// handle would alias a future run's events. A no-op for pool-less
// simulators.
func (s *Simulator) Release() {
	if s.pools == nil {
		return
	}
	if len(s.queue) != 0 {
		panic(fmt.Sprintf("eventsim: Release with %d events still queued", len(s.queue)))
	}
	for _, b := range s.blocks {
		for i := range b {
			b[i] = Event{}
		}
		s.pools.blocks = append(s.pools.blocks, b)
	}
	s.blocks = nil
	s.arena = nil
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule queues fn to run after delay of virtual time. A negative delay is
// treated as zero (the event fires at the current instant, after any events
// already scheduled for that instant).
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// reordering events would break causality.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: ScheduleAt(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	s.checkOwner()
	s.seq++
	e := s.newEvent()
	*e = Event{at: t, fn: fn}
	s.queue.push(e, s.seq)
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return e
}

// ScheduleArgAt queues fn(arg) to run at absolute virtual time t. It is the
// allocation-free variant of ScheduleAt: with a package-level fn and a pooled
// pointer arg, the only storage consumed is the arena-backed Event itself.
// Ordering relative to ScheduleAt events follows the shared seq counter.
func (s *Simulator) ScheduleArgAt(t time.Duration, fn func(any), arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: ScheduleArgAt(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	s.checkOwner()
	s.seq++
	e := s.newEvent()
	*e = Event{at: t, afn: fn, arg: arg}
	s.queue.push(e, s.seq)
	//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; callers hold them only to Cancel)
	return e
}

// Step executes the earliest pending event, advancing the clock to its
// scheduled time. It returns false when no events remain.
func (s *Simulator) Step() bool {
	s.checkOwner()
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.cancel {
			continue
		}
		s.now = e.at
		s.fired++
		if e.afn != nil {
			afn, arg := e.afn, e.arg
			e.afn, e.arg = nil, nil
			afn(arg)
			return true
		}
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t.
func (s *Simulator) RunUntil(t time.Duration) {
	for len(s.queue) > 0 {
		e := s.queue[0].e
		if e.cancel {
			s.queue.pop()
			continue
		}
		if e.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
