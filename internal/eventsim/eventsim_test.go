package eventsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, s.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	s.ScheduleAt(500*time.Millisecond, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil event fn did not panic")
		}
	}()
	s.Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	later := s.Schedule(2*time.Millisecond, func() { fired = true })
	s.Schedule(time.Millisecond, func() { later.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event fired despite cancellation by earlier event")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Schedule(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Schedule(time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("nested times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []int
	s.Schedule(time.Millisecond, func() { fired = append(fired, 1) })
	s.Schedule(3*time.Millisecond, func() { fired = append(fired, 3) })
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.Schedule(5*time.Millisecond, func() {})
	s.RunFor(3 * time.Millisecond)
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestFiredCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
}

// Property: for any batch of random delays, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestClockMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := New(int64(trial))
		var last time.Duration
		ok := true
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		if !ok {
			t.Fatal("clock went backwards")
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j%100)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

// Property: random interleavings of ScheduleAt, ScheduleArgAt, Cancel and
// RunUntil — including events that schedule a follow-up while firing — fire
// in exactly the order of a naive reference that repeatedly takes the least
// (at, seq) among the pending, uncancelled events.
func TestQueueMatchesSortedReference(t *testing.T) {
	// Every third top-level event schedules one child when it fires, some at
	// the same instant to exercise seq order. Child ids are offset so both
	// models name them identically.
	const childOffset = 1 << 20
	child := func(id int) (d time.Duration, childID int, ok bool) {
		return time.Duration(id%4) * time.Millisecond, id + childOffset, id < childOffset && id%3 == 0
	}
	type refEvent struct {
		at   time.Duration
		seq  uint64
		id   int
		dead bool // fired or cancelled
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := New(int64(trial))
		var got []int
		var handles []*Event // top-level events, indexed by id

		var schedule func(at time.Duration, id int, arg bool) *Event
		fire := func(id int) {
			got = append(got, id)
			if d, cid, ok := child(id); ok {
				schedule(s.Now()+d, cid, cid%2 == 0)
			}
		}
		fireArg := func(a any) { fire(a.(int)) }
		schedule = func(at time.Duration, id int, arg bool) *Event {
			if arg {
				return s.ScheduleArgAt(at, fireArg, id)
			}
			return s.ScheduleAt(at, func() { fire(id) })
		}

		var ref []refEvent
		var refSeq uint64
		var refNow time.Duration
		var want []int
		refSchedule := func(at time.Duration, id int) {
			refSeq++
			ref = append(ref, refEvent{at: at, seq: refSeq, id: id})
		}
		refRunUntil := func(until time.Duration) {
			for {
				best := -1
				for i, r := range ref {
					if r.dead || r.at > until {
						continue
					}
					if best < 0 || r.at < ref[best].at || (r.at == ref[best].at && r.seq < ref[best].seq) {
						best = i
					}
				}
				if best < 0 {
					break
				}
				ref[best].dead = true
				r := ref[best]
				refNow = r.at
				want = append(want, r.id)
				if d, cid, ok := child(r.id); ok {
					refSchedule(refNow+d, cid)
				}
			}
			if until > refNow {
				refNow = until
			}
		}

		ops := 1 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				at := s.Now() + time.Duration(rng.Intn(20))*time.Millisecond
				id := len(handles)
				handles = append(handles, schedule(at, id, k%2 == 0))
				refSchedule(at, id)
			case k < 8:
				if len(handles) > 0 {
					id := rng.Intn(len(handles))
					handles[id].Cancel()
					for i := range ref {
						if ref[i].id == id {
							ref[i].dead = true
						}
					}
				}
			default:
				until := s.Now() + time.Duration(rng.Intn(15))*time.Millisecond
				s.RunUntil(until)
				refRunUntil(until)
				if s.Now() != refNow {
					t.Fatalf("trial %d: Now = %v, reference %v", trial, s.Now(), refNow)
				}
			}
		}
		s.Run()
		refRunUntil(1 << 62)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire %d is event %d, reference %d", trial, i, got[i], want[i])
			}
		}
	}
}

// benchDelays is a fixed spread of scheduling delays for BenchmarkScheduleStep,
// drawn once so the timed loop measures the queue, not the random source.
var benchDelays = func() []time.Duration {
	rng := rand.New(rand.NewSource(3))
	d := make([]time.Duration, 4096)
	for i := range d {
		d[i] = time.Duration(rng.Intn(50_000)) * time.Microsecond
	}
	return d
}()

func benchNop(any) {}

// BenchmarkScheduleStep is the eventsim layer benchmark: a steady-state queue
// of 1024 pending events, where each operation schedules one
// allocation-free event and steps the earliest one. The simulator is rebuilt on a shared
// block pool every 64k operations, outside the timer, so the append-only
// event arena stays bounded however large b.N grows.
func BenchmarkScheduleStep(b *testing.B) {
	const pending, round = 1024, 1 << 16
	pools := NewPools()
	var s *Simulator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%round == 0 {
			b.StopTimer()
			if s != nil {
				s.Run()
				s.Release()
			}
			s = NewWithPools(1, pools)
			for j := 0; j < pending; j++ {
				s.ScheduleArgAt(benchDelays[j%len(benchDelays)], benchNop, nil)
			}
			b.StartTimer()
		}
		s.ScheduleArgAt(s.Now()+benchDelays[i%len(benchDelays)], benchNop, nil)
		s.Step()
	}
}
