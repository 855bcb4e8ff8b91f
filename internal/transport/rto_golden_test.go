package transport

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// rtoGoldenHash pins when retransmission timers fire. It was captured
// from the closure-per-arm timer implementation (one scheduled event
// per armRTO, stale ones skipped by a generation check); any timer
// implementation must reproduce it byte for byte.
const rtoGoldenHash = "bb79afa0a480234e"

// rtoScenarioLog runs the RTO-heavy scenarios and renders every
// message's (ID, Submitted, Completed, RTOs) and every sender
// connection's (RTOCount, FastRetx, SegmentsOut).
func rtoScenarioLog(t *testing.T) string {
	t.Helper()
	var out []byte
	record := func(name string, msgs []*Message, conns []*Conn) {
		out = fmt.Appendf(out, "%s\n", name)
		for _, m := range msgs {
			out = fmt.Appendf(out, "msg %d %d %d %d\n", m.ID, m.Submitted, m.Completed, m.RTOs)
		}
		for _, c := range conns {
			out = fmt.Appendf(out, "conn %d->%d %d %d %d\n", c.e.VMID, c.dstVM, c.RTOCount, c.FastRetx, c.SegmentsOut)
		}
	}

	// The incast of TestIncastRTOs: five senders into one receiver
	// through a 30 KB buffer, 10 ms RTO floor.
	{
		nw := testNet(t, 30e3)
		f := NewFabric(nw)
		f.AddEndpoint(200, 1, Options{})
		var msgs []*Message
		var conns []*Conn
		for i, h := range []int{0, 2, 3, 4, 5} {
			e := f.AddEndpoint(100+i, h, Options{MinRTONs: 10_000_000})
			msgs = append(msgs, e.SendMessage(200, 300_000, nil))
			conns = append(conns, e.Conn(200))
		}
		nw.Sim.Run(300e9)
		record("incast", msgs, conns)
	}

	// The link death of TestRTORecoveryAcrossLinkDeath, with a second
	// message queued behind the first and a third submitted mid-outage.
	{
		nw := testNet(t, 312e3)
		f := NewFabric(nw)
		src := f.AddEndpoint(100, 0, Options{MinRTONs: 5_000_000})
		f.AddEndpoint(200, 3, Options{})
		msgs := []*Message{src.SendMessage(200, 400_000, nil), src.SendMessage(200, 50_000, nil)}
		up := nw.Queues[nw.Tree.RackUpPortID(0)]
		nw.Sim.At(200_000, func() { up.Fail() })
		nw.Sim.At(12_000_000, func() { msgs = append(msgs, src.SendMessage(200, 20_000, nil)) })
		nw.Sim.At(30_000_000, func() { up.Restore() })
		nw.Sim.Run(300e9)
		record("linkdeath", msgs, []*Conn{src.Conn(200)})
	}

	// The blackhole of TestRTORecoveryAfterBlackhole: exponential
	// backoff against a missing destination, then recovery.
	{
		nw := testNet(t, 312e3)
		f := NewFabric(nw)
		src := f.AddEndpoint(100, 0, Options{MinRTONs: 5_000_000})
		m := src.SendMessage(200, 50_000, nil)
		nw.Sim.Run(20_000_000)
		f.AddEndpoint(200, 1, Options{})
		nw.Sim.Run(300e9)
		record("blackhole", []*Message{m}, []*Conn{src.Conn(200)})
	}
	return string(out)
}

// TestRTOFiringGolden pins RTO firing order and timing across the
// incast, link-death and blackhole scenarios against a hash recorded
// before the retransmission timer was rewritten.
func TestRTOFiringGolden(t *testing.T) {
	log := rtoScenarioLog(t)
	h := fnv.New64a()
	h.Write([]byte(log))
	got := fmt.Sprintf("%016x", h.Sum64())
	if got != rtoGoldenHash {
		t.Errorf("RTO scenario hash = %s, want %s; log:\n%s", got, rtoGoldenHash, log)
	}
}
