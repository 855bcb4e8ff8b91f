package netsim

// Timer is a re-armable deadline: one callback, moved with Reset and
// disarmed with Stop, backed by a single event node however often it
// is re-armed. A retransmission timer re-armed on every ack would
// otherwise leave one dead closure event per arm in the overflow heap.
//
// Firing order equals scheduling a fresh event per arm and ignoring
// all but the newest (a generation check): each Reset reserves the
// sequence number a fresh schedule would have taken at that moment,
// and a timer that fires does so at exactly (deadline, reserved seq).
// The node itself sits at the earliest deadline armed since it was
// last queued. When it comes due before the current deadline it
// re-queues itself at the armed key, so deadlines that only move later
// cost nothing until the node surfaces; a deadline moved earlier than
// the queued node repositions it in place. Stop leaves the node queued
// to surface as a no-op, like a cancelled closure would.
//
// The node always lives in the overflow heap, which merges with the
// wheel on (time, seq), so the re-queued key orders correctly against
// wheel events at any distance. A Timer belongs to one Sim (an island
// under a ParallelSim) and follows its threading rules.
type Timer struct {
	s  *Sim
	fn func()
	ev event // owned by the timer, never on the freelist

	deadline int64
	seq      uint64 // reserved by the Reset that set deadline
	armed    bool

	queued bool
	at     int64 // the node's heap key while queued
	atSeq  uint64
}

// NewTimer returns a disarmed timer that runs fn when it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	tm := &Timer{s: s, fn: fn}
	tm.ev.kind = evtTimer
	tm.ev.fn = tm.fire
	return tm
}

// Reset arms the timer for absolute time t (clamped to now), replacing
// any earlier deadline.
func (tm *Timer) Reset(t int64) {
	s := tm.s
	if t < s.now {
		t = s.now
	}
	tm.deadline, tm.seq, tm.armed = t, s.seq, true
	s.seq++
	switch {
	case !tm.queued:
		tm.push()
	case t < tm.at:
		s.farMove(&tm.ev, t, tm.seq)
		tm.at, tm.atSeq = t, tm.seq
	}
}

// Stop disarms the timer.
func (tm *Timer) Stop() { tm.armed = false }

// push queues the node at the armed key.
func (tm *Timer) push() {
	s := tm.s
	tm.queued, tm.at, tm.atSeq = true, tm.deadline, tm.seq
	tm.ev.seq = tm.seq
	s.farPush(tm.deadline, tm.seq, &tm.ev)
	if int64(len(s.far)) > s.rtc.FarHWM {
		s.rtc.FarHWM = int64(len(s.far))
	}
}

// fire runs when the node surfaces at (at, atSeq). The armed key is
// never before it, so anything but an exact match means the deadline
// moved later since the node was queued.
func (tm *Timer) fire() {
	tm.queued = false
	if !tm.armed {
		return
	}
	if tm.deadline != tm.at || tm.seq != tm.atSeq {
		tm.push()
		return
	}
	tm.armed = false
	tm.fn()
}
