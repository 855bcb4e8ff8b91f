package pacer

import "testing"

// TestScheduledFrameLeavesQueue: committing a frame must drop every
// reference its destination queue held to it, so a dequeued frame
// (and, through Ref, its payload) is not kept alive by the queue and
// a recycled frame is never aliased by a stale queue slot.
func TestScheduledFrameLeavesQueue(t *testing.T) {
	vm := newTestVM(1, 1e9, 3000) // burst admits the first two frames at t=0
	var frames []*Packet
	for i := 0; i < 4; i++ {
		frames = append(frames, vm.Enqueue(0, 2+i%2, 1500, i))
	}
	vm.Schedule(0)
	committed := 0
	for _, f := range frames {
		if f.Release < 0 {
			continue
		}
		committed++
		if f.next != nil {
			t.Errorf("committed frame %v still links to a queued frame", f.Ref)
		}
		for _, q := range vm.dlist {
			for p := q.head; p != nil; p = p.next {
				if p == f {
					t.Errorf("committed frame %v still reachable from destination %d's queue", f.Ref, q.dst)
				}
			}
		}
	}
	if committed != 2 {
		t.Fatalf("committed %d frames at t=0, want the 2 the burst admits", committed)
	}
	if vm.queued != 2 || vm.Pending() != 4 {
		t.Errorf("queued = %d, pending = %d; want 2 and 4", vm.queued, vm.Pending())
	}
}

// TestRecycleReusesFrames: a recycled frame comes back from Enqueue
// reset, carrying only the new packet's fields.
func TestRecycleReusesFrames(t *testing.T) {
	vm := newTestVM(1, 1e9, 3000)
	p := vm.Enqueue(0, 2, 1500, "first")
	vm.Schedule(0)
	got, ok := vm.PopReady(0)
	if !ok || got != p {
		t.Fatal("frame not committed at t=0")
	}
	p.Wire = 42
	vm.Recycle(p)
	q := vm.Enqueue(5, 3, 700, "second")
	if q != p {
		t.Fatal("Enqueue did not reuse the recycled frame")
	}
	if q.Ref != "second" || q.DstVM != 3 || q.Bytes != 700 || q.Release != -1 ||
		q.Wire != 0 || q.Gate != GateNone || q.EnqueuedAt() != 5 || q.next != nil {
		t.Errorf("reused frame not reset: %+v", *q)
	}
}

// TestPacerSteadyStateAllocs: with frames recycled after each batch,
// the pacer's enqueue → schedule → build cycle reuses its batch, its
// void frames and its data frames, and allocates nothing.
func TestPacerSteadyStateAllocs(t *testing.T) {
	vm := newTestVM(1, 2e9/8, 3000)
	hp := NewHostPacer(NewBatcher(tenGbE))
	hp.AddVM(vm)
	now := int64(0)
	cycle := func() {
		for i := 0; i < 20; i++ {
			vm.Enqueue(now, 2+i%3, 1500, nil)
		}
		for hp.Pending() > 0 {
			b := hp.NextBatch(now)
			if b == nil {
				now, _ = vm.NextEventTime()
				continue
			}
			for _, p := range b.Packets {
				if !p.Void {
					vm.Recycle(p)
				}
			}
			now = b.End
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state pacer cycle allocates %.1f times, want 0", allocs)
	}
	b1 := hp.Batcher.Build(now, nil)
	if b2 := hp.Batcher.Build(now, nil); b1 != b2 {
		t.Error("Build returned a fresh batch instead of reusing its own")
	}
}
