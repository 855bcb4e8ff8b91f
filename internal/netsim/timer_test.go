package netsim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// armer is what the timer property drives: the production Timer or
// the closure-per-arm reference below.
type armer interface {
	Reset(t int64)
	Stop()
}

// refTimer is the closure-per-arm design Timer replaces: every Reset
// schedules a fresh event, and a generation check makes all but the
// newest a no-op.
type refTimer struct {
	s     *Sim
	fn    func()
	gen   uint64
	armed bool
}

func (r *refTimer) Reset(t int64) {
	r.gen++
	gen := r.gen
	r.armed = true
	r.s.At(t, func() {
		if r.gen != gen || !r.armed {
			return
		}
		r.armed = false
		r.fn()
	})
}

func (r *refTimer) Stop() { r.armed = false }

// timerScript is one randomized run: ordinary events that arm, move
// and stop a handful of timers, timer callbacks that sometimes re-arm
// themselves, and (under a ParallelSim) barrier-time events on the
// Global loop that do the same. Every executed callback is logged.
type timerScript struct {
	rng    *rand.Rand
	s      *Sim // the timers' sim (an island under a ParallelSim)
	global *Sim // nil for a standalone run
	timers []armer
	// deadline/armed mirror each timer's state to classify moves.
	deadline []int64
	armed    []bool
	budget   int
	log      []string
	// moves counts re-arms of an armed timer to an earlier, equal and
	// later deadline.
	moves [3]int
}

// delay draws deadlines on a coarse grid so timers tie with each other
// and with ordinary events at the same ns, with a tail far past the
// wheel span.
func (sc *timerScript) delay() int64 {
	switch sc.rng.IntN(4) {
	case 0:
		return 0
	case 1:
		return 10 * sc.rng.Int64N(8)
	case 2:
		return 100 * sc.rng.Int64N(40)
	default:
		return 1000 * sc.rng.Int64N(20)
	}
}

func (sc *timerScript) reset(k int, now int64) {
	t := now + sc.delay()
	if sc.armed[k] {
		switch {
		case t < sc.deadline[k]:
			sc.moves[0]++
		case t == sc.deadline[k]:
			sc.moves[1]++
		default:
			sc.moves[2]++
		}
	}
	sc.deadline[k], sc.armed[k] = t, true
	sc.timers[k].Reset(t)
}

// act performs one to three random timer operations or event spawns.
func (sc *timerScript) act(now int64) {
	for n := 1 + sc.rng.IntN(3); n > 0; n-- {
		k := sc.rng.IntN(len(sc.timers))
		switch r := sc.rng.IntN(10); {
		case r < 6:
			sc.reset(k, now)
		case r < 8:
			sc.armed[k] = false
			sc.timers[k].Stop()
		default:
			sc.spawn(sc.s, now+sc.delay(), "E")
		}
	}
}

func (sc *timerScript) spawn(s *Sim, t int64, tag string) {
	if sc.budget <= 0 {
		return
	}
	sc.budget--
	id := sc.budget
	s.At(t, func() {
		sc.log = append(sc.log, fmt.Sprintf("%s%d@%d", tag, id, s.Now()))
		sc.act(sc.s.Now())
	})
}

// newTimerScript builds the timers and seeds the initial events.
func newTimerScript(seed uint64, s, global *Sim, mk func(s *Sim, fn func()) armer) *timerScript {
	const nTimers = 4
	sc := &timerScript{
		rng:      rand.New(rand.NewPCG(seed, 7)),
		s:        s,
		global:   global,
		deadline: make([]int64, nTimers),
		armed:    make([]bool, nTimers),
		budget:   300,
	}
	for k := 0; k < nTimers; k++ {
		sc.timers = append(sc.timers, mk(s, func() {
			sc.armed[k] = false
			sc.log = append(sc.log, fmt.Sprintf("T%d@%d", k, s.Now()))
			if sc.rng.IntN(3) == 0 {
				sc.reset(k, s.Now()) // re-arm from inside the callback
			}
			if sc.rng.IntN(4) == 0 {
				sc.act(s.Now())
			}
		}))
	}
	for i := 0; i < 40; i++ {
		sc.spawn(s, sc.rng.Int64N(3000), "E")
	}
	if global != nil {
		for i := 0; i < 10; i++ {
			sc.spawn(global, sc.rng.Int64N(30_000), "G")
		}
	}
	return sc
}

func mkTimer(s *Sim, fn func()) armer    { return s.NewTimer(fn) }
func mkRefTimer(s *Sim, fn func()) armer { return &refTimer{s: s, fn: fn} }

const timerScriptHorizon = 200_000

func runStandaloneScript(seed uint64, mk func(*Sim, func()) armer) *timerScript {
	s := NewSim()
	sc := newTimerScript(seed, s, nil, mk)
	s.Run(timerScriptHorizon)
	return sc
}

func runIslandScript(seed uint64, mk func(*Sim, func()) armer) *timerScript {
	ps := NewParallelSim(2, 2, 1000)
	sc := newTimerScript(seed, ps.Island(0), ps.Global, mk)
	ps.Run(timerScriptHorizon)
	return sc
}

// TestTimerMatchesClosurePerArm is the Timer's equivalence property:
// random Reset/Stop sequences, interleaved with ordinary events, must
// execute exactly as the closure-per-arm reference does — same
// callbacks, same times, same order — on a standalone Sim and on a
// ParallelSim island (where the Global loop also re-arms at barriers).
func TestTimerMatchesClosurePerArm(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(uint64, func(*Sim, func()) armer) *timerScript
	}{
		{"standalone", runStandaloneScript},
		{"island", runIslandScript},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var moves [3]int
			fires := 0
			for seed := uint64(1); seed <= 60; seed++ {
				want := tc.run(seed, mkRefTimer)
				got := tc.run(seed, mkTimer)
				if !slices.Equal(got.log, want.log) {
					i := 0
					for i < len(got.log) && i < len(want.log) && got.log[i] == want.log[i] {
						i++
					}
					t.Fatalf("seed %d: logs diverge at entry %d of %d/%d:\n got  %v\n want %v",
						seed, i, len(got.log), len(want.log),
						got.log[i:min(i+5, len(got.log))], want.log[i:min(i+5, len(want.log))])
				}
				for i := range moves {
					moves[i] += got.moves[i]
				}
				for _, e := range got.log {
					if e[0] == 'T' {
						fires++
					}
				}
			}
			t.Logf("%d earlier / %d equal / %d later re-arms, %d fires", moves[0], moves[1], moves[2], fires)
			if moves[0] == 0 || moves[1] == 0 || moves[2] == 0 || fires < 100 {
				t.Fatalf("script too tame: %d earlier / %d equal / %d later re-arms, %d fires",
					moves[0], moves[1], moves[2], fires)
			}
		})
	}
}

// TestTimerKeepsOneNode: re-arming later on every event leaves one
// node in the heap, where a closure per arm would leave one per Reset.
func TestTimerKeepsOneNode(t *testing.T) {
	s := NewSim()
	fired := int64(-1)
	tm := s.NewTimer(func() { fired = s.Now() })
	n := 0
	var tick func()
	tick = func() {
		tm.Reset(s.Now() + 1_000_000)
		if n++; n < 1000 {
			s.After(10, tick)
		}
	}
	s.At(0, tick)
	s.Run(20_000)
	if got := s.RuntimeCounters().FarHWM; got != 1 {
		t.Errorf("FarHWM = %d after 1000 re-arms, want 1", got)
	}
	s.Run(2_000_000)
	if fired != 9_990+1_000_000 {
		t.Errorf("timer fired at %d, want %d", fired, 9_990+1_000_000)
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("%d events pending after the timer fired", n)
	}
}

// TestEventNodeSize guards the event node at one cache line: the
// typed kinds (evtTimer included) share fields instead of adding them.
func TestEventNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Errorf("event node is %d bytes, want <= 64", n)
	}
}
