package transport

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pacer"
	"repro/internal/topology"
)

// runFabricScenario drives a transport fabric over a three-pod network
// built sequentially (workers 0) or as islands under a ParallelSim, so
// segments, acks and timers cross island boundaries. Paced runs put
// every sender behind a Silo pacer with 200 ms-RTO Reno; unpaced runs
// are a TCP incast through shallow buffers that forces timeouts.
// Messages are submitted from the Global loop and chained from
// completion callbacks on the sender's island. The returned log holds
// every message's (ID, Submitted, Completed, RTOs), every connection's
// counters and the bytes each receiver got.
//
// The engines break a same-nanosecond tie between arrivals from two
// islands differently (the sequential one by scheduling order, the
// island one by source island), so equivalence with the sequential
// engine needs the workload to keep such ties out, as the netsim and
// parallel-scale gates do: submissions are staggered by odd offsets,
// and no port where drops decide the outcome is fed from two islands.
func runFabricScenario(t *testing.T, workers int, paced bool) (string, int) {
	t.Helper()
	buf := 312e3
	if !paced {
		buf = 30e3
	}
	tree, err := topology.New(topology.Config{
		Pods: 3, RacksPerPod: 2, ServersPerRack: 2, SlotsPerServer: 4,
		LinkBps: 10 * gbps, BufferBytes: buf, NICBufferBytes: 312e3,
		RackOversub: 1, PodOversub: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := netsim.Options{PropNs: 1000}
	var nw *netsim.Network
	if workers == 0 {
		nw = netsim.Build(netsim.NewSim(), tree, opts)
	} else {
		nw = netsim.BuildParallel(tree, opts, netsim.ParallelOptions{Workers: workers})
	}
	f := NewFabric(nw)

	// Paced: every host but 0 sends to a sink on host 0 and shuffles
	// to a peer in another pod. Unpaced: pod 0's other hosts incast
	// into the sink, and pod 1 streams one-to-one into pod 2 across the
	// core.
	const sinkVM = 500
	f.AddEndpoint(sinkVM, 0, Options{})
	type sender struct {
		e    *Endpoint
		dsts []int
		msgs []*Message
	}
	var senders []*sender
	for h := 1; h < len(nw.Hosts); h++ {
		vm := 100 + h
		if !paced && h >= 8 {
			f.AddEndpoint(vm, h, Options{})
			continue
		}
		opt := Options{MinRTONs: 1_000_000}
		dsts := []int{sinkVM}
		switch {
		case paced:
			opt = Options{Paced: true}
			nw.Hosts[h].EnablePacing(pacer.NewBatcher(10 * gbps))
			nw.Hosts[h].AddVM(pacer.NewVM(vm, pacer.Guarantee{
				BandwidthBps: 1 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1518,
			}, 0))
			dsts = append(dsts, 100+1+(h+7)%(len(nw.Hosts)-1))
		case h >= 4:
			dsts = []int{100 + h + 4}
		}
		senders = append(senders, &sender{e: f.AddEndpoint(vm, h, opt), dsts: dsts})
	}

	size := 200_000
	if paced {
		size = 40_000
	}
	for round := 0; round < 4; round++ {
		for i, s := range senders {
			for j, dst := range s.dsts {
				at := int64(round)*3_000_000 + int64(i)*1_013 + int64(j)*517
				nw.Sim.At(at, func() {
					// Each completion queues one follow-up message on the
					// same connection, from the sender's own island.
					follow := func(*Message) {
						if len(s.msgs) < 24 {
							s.msgs = append(s.msgs, s.e.SendMessage(dst, size/4, nil))
						}
					}
					s.msgs = append(s.msgs, s.e.SendMessage(dst, size, follow))
				})
			}
		}
	}
	nw.Run(2e9)

	var b strings.Builder
	rtos := 0
	sink, _ := f.Endpoint(sinkVM)
	for _, s := range senders {
		for _, m := range s.msgs {
			fmt.Fprintf(&b, "msg %d %d %d %d\n", m.ID, m.Submitted, m.Completed, m.RTOs)
			rtos += m.RTOs
		}
		for _, dst := range s.dsts {
			c := s.e.Conn(dst)
			fmt.Fprintf(&b, "conn %d->%d %d %d %d %d\n", s.e.VMID, dst, c.RTOCount, c.FastRetx, c.SegmentsOut, c.BytesAcked)
		}
		fmt.Fprintf(&b, "sink got %d from %d\n", sink.BytesReceived(s.e.VMID), s.e.VMID)
	}
	fmt.Fprintf(&b, "drops %d\n", nw.TotalDrops())
	return b.String(), rtos
}

// TestTransportParallelEquivalence runs paced Silo and unpaced TCP
// incast over the island engine at workers 1, 2 and 4 and requires
// per-message logs byte-identical to the sequential engine. Packets
// and segments are recycled on the receiving island, so this also
// covers cross-island recycling (run it under -race).
func TestTransportParallelEquivalence(t *testing.T) {
	for _, paced := range []bool{true, false} {
		name := "tcp-incast"
		if paced {
			name = "silo-paced"
		}
		t.Run(name, func(t *testing.T) {
			want, rtos := runFabricScenario(t, 0, paced)
			if !paced && rtos == 0 {
				t.Fatal("incast suffered no RTOs; the scenario does not exercise timers")
			}
			if n := strings.Count(want, "msg "); n < 40 {
				t.Fatalf("only %d messages ran", n)
			}
			t.Logf("%d messages, %d message RTOs", strings.Count(want, "msg "), rtos)
			for _, w := range []int{1, 2, 4} {
				if got, _ := runFabricScenario(t, w, paced); got != want {
					t.Errorf("workers=%d diverges from the sequential engine:\n%s", w, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two logs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
