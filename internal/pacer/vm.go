package pacer

import (
	"container/heap"
	"fmt"
	"math"
)

// Packet is one frame handed to the pacer (data) or synthesized by the
// batcher (void).
type Packet struct {
	// Bytes is the on-wire frame size including Ethernet overhead.
	Bytes int
	// SrcVM and DstVM identify endpoints for hose accounting.
	SrcVM, DstVM int
	// Void marks a spacer frame (MAC src == MAC dst) that the first
	// switch drops.
	Void bool
	// Gate records which token bucket determined Release (Gate*
	// constants; GateNone when the packet was immediately feasible).
	// Set at commit time; flight-recorder attribution reads it.
	Gate uint8
	// Release is the earliest ns at which the frame may leave the NIC,
	// assigned when the scheduler commits the packet (-1 while it
	// waits in its destination queue).
	Release int64
	// Wire is the ns at which the batcher actually laid the frame on
	// the wire (set during batch building).
	Wire int64
	// Ref carries an opaque payload reference for integrations (e.g.
	// the simulator's packet).
	Ref interface{}

	enq  int64   // enqueue time
	seq  uint64  // FIFO tiebreak within equal Release
	next *Packet // destination-FIFO or freelist link
}

// MinVoidBytes is the smallest legal Ethernet frame including preamble
// and inter-frame gap: 84 bytes, 67.2 ns at 10 GbE (paper §4.3.1).
const MinVoidBytes = 84

// Gate values: which bucket of the chain (Figure 8) pushed a packet's
// release stamp furthest, i.e. the binding constraint at commit time.
const (
	// GateNone: the packet was feasible at its enqueue time.
	GateNone uint8 = iota
	// GateDest: the per-destination hose bucket gated it.
	GateDest
	// GateAvg: the {B, S} tenant bucket gated it (the VM offered more
	// than its arrival curve B·t + S admits).
	GateAvg
	// GateCap: the Bmax cap bucket gated it.
	GateCap
)

// EnqueuedAt reports when the packet entered its destination queue.
func (p *Packet) EnqueuedAt() int64 { return p.enq }

// Guarantee configures a VM pacer.
type Guarantee struct {
	// BandwidthBps is B, the average rate (token bucket rate).
	BandwidthBps float64
	// BurstBytes is S, the {B,S} bucket's size.
	BurstBytes float64
	// BurstRateBps is Bmax, the cap bucket's rate. <= 0 means
	// unlimited.
	BurstRateBps float64
	// MTUBytes sizes the cap bucket (one packet may go at wire speed).
	MTUBytes float64
}

// VM shapes one virtual machine's egress traffic through the paper's
// token-bucket hierarchy (Figure 8): per-destination hose buckets on
// top, the {B, S} tenant bucket in the middle, the Bmax cap bucket at
// the bottom.
//
// Packets wait in per-destination FIFOs and are committed through the
// bucket chain in chronological release order — exactly as the
// filter driver drains its queues. Committing in time order is what
// keeps the chain jointly conformant: every bucket's virtual clock
// moves monotonically, so no packet can consume budget "in the past"
// on behalf of a packet that another bucket has deferred.
type VM struct {
	ID  int
	g   Guarantee
	cap *TokenBucket // Bmax
	avg *TokenBucket // {B, S}

	// Per-destination state: dests looks a destination up, dlist holds
	// the same records densely (first-touch order) for the scheduling
	// scans, which visit every destination on every commit.
	dests   map[int]*dstQueue
	dlist   []*dstQueue
	queued  int
	ready   packetHeap // committed packets in release order
	seq     uint64
	horizon int64 // all packets with release <= horizon are committed

	// free lists data frames handed back through Recycle (linked
	// through Packet.next) for Enqueue to reuse.
	free *Packet

	queuedTotal int64      // bytes awaiting commit across all destinations
	mx          *VMMetrics // nil = uninstrumented (one branch per event)

	// onCommit, if set, observes every committed emission (release
	// stamp, wire bytes) — the introspection plane's envelope tap.
	onCommit func(releaseNs int64, bytes int)
}

// dstQueue is one destination's state: the FIFO of packets awaiting
// commit (linked through Packet.next), its hose bucket, and the demand
// counters the hose coordinator reads.
type dstQueue struct {
	dst        int
	head, tail *Packet
	bucket     *TokenBucket // nil: no per-destination limit
	// queuedBytes awaits commit; sentBytes is the cumulative committed
	// total. used marks a destination traffic was ever queued toward
	// (SetDestRate alone creates the record without it).
	queuedBytes, sentBytes int64
	used                   bool
}

func (q *dstQueue) push(p *Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// pop removes the FIFO head and clears its link, so a dequeued packet
// neither stays reachable from the queue nor keeps its successors
// reachable.
func (q *dstQueue) pop() *Packet {
	p := q.head
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	return p
}

// NewVM returns a pacer for one VM, with buckets full at time start.
func NewVM(id int, g Guarantee, start int64) *VM {
	if g.MTUBytes <= 0 {
		g.MTUBytes = 1500
	}
	burst := g.BurstBytes
	if burst < g.MTUBytes {
		burst = g.MTUBytes // a bucket must admit at least one packet
	}
	return &VM{
		ID:    id,
		g:     g,
		cap:   NewTokenBucket(g.BurstRateBps, g.MTUBytes, start),
		avg:   NewTokenBucket(g.BandwidthBps, burst, start),
		dests: make(map[int]*dstQueue),
	}
}

// dest returns dst's record, creating it on first touch.
func (v *VM) dest(dst int) *dstQueue {
	q, ok := v.dests[dst]
	if !ok {
		q = &dstQueue{dst: dst}
		v.dests[dst] = q
		v.dlist = append(v.dlist, q)
	}
	return q
}

// Guarantee returns the VM's pacer configuration.
func (v *VM) Guarantee() Guarantee { return v.g }

// SetMetrics attaches (or detaches, with nil) telemetry to the VM.
func (v *VM) SetMetrics(m *VMMetrics) { v.mx = m }

// SetCommitTap installs fn to observe every packet the scheduler
// commits through the bucket chain, carrying the exact release stamp
// and wire bytes the {B, S} buckets authorized. Commits are produced
// in nondecreasing release order, so fn may feed a streaming envelope
// estimator directly. One tap per VM; nil detaches. The tap runs on
// the VM's scheduling path (its island under a ParallelSim), so it
// must not allocate or block.
func (v *VM) SetCommitTap(fn func(releaseNs int64, bytes int)) { v.onCommit = fn }

// QueuedBytesTo reports bytes awaiting release toward dst.
func (v *VM) QueuedBytesTo(dst int) int64 {
	if q, ok := v.dests[dst]; ok {
		return q.queuedBytes
	}
	return 0
}

// SentBytesTo reports cumulative bytes committed toward dst.
func (v *VM) SentBytesTo(dst int) int64 {
	if q, ok := v.dests[dst]; ok {
		return q.sentBytes
	}
	return 0
}

// Destinations lists every destination this VM has ever queued traffic
// toward, in first-enqueue order (used by the hose coordinator to
// enumerate candidate flows).
func (v *VM) Destinations() []int {
	out := make([]int, 0, len(v.dlist))
	for _, q := range v.dlist {
		if q.used {
			out = append(out, q.dst)
		}
	}
	return out
}

// SetDestRate installs or retunes the per-destination hose bucket for
// traffic toward dst (paper Figure 8, top row; rates come from the
// hose coordinator with Σ rates <= B). A rate of 0 removes the bucket
// (destination unconstrained pending coordination).
func (v *VM) SetDestRate(now int64, dst int, rate float64) {
	if rate <= 0 {
		if q, ok := v.dests[dst]; ok {
			q.bucket = nil
		}
		return
	}
	q := v.dest(dst)
	if q.bucket != nil {
		q.bucket.SetRate(now, rate)
		return
	}
	// Per-destination buckets carry the full burst allowance: bursts
	// are not destination-limited (§4.1).
	burst := v.g.BurstBytes
	if burst < v.g.MTUBytes {
		burst = v.g.MTUBytes
	}
	q.bucket = NewTokenBucket(rate, burst, now)
}

// DestRate reports the installed per-destination rate toward dst
// (0 if no bucket is installed).
func (v *VM) DestRate(dst int) float64 {
	if q, ok := v.dests[dst]; ok && q.bucket != nil {
		return q.bucket.Rate()
	}
	return 0
}

// Enqueue admits one data packet into its destination queue. The
// release stamp is assigned later, when the scheduler commits the
// packet in chronological order. The frame comes from the VM's
// freelist when a consumer has handed one back through Recycle.
func (v *VM) Enqueue(now int64, dstVM, bytes int, ref interface{}) *Packet {
	p := v.free
	if p == nil {
		// Carve a chunk: a cold start allocates once per 64 frames.
		chunk := make([]Packet, 64)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		p = &chunk[0]
	}
	v.free = p.next
	*p = Packet{
		Bytes:   bytes,
		SrcVM:   v.ID,
		DstVM:   dstVM,
		Release: -1,
		Ref:     ref,
		enq:     now,
		seq:     v.seq,
	}
	v.seq++
	q := v.dest(dstVM)
	q.push(p)
	q.used = true
	q.queuedBytes += int64(bytes)
	v.queued++
	v.queuedTotal += int64(bytes)
	v.mx.noteQueued(v.queuedTotal)
	return p
}

// Recycle hands back a data frame whose batch the caller has finished
// consuming (every field read, Ref included); Enqueue reuses it. Only
// the frame's owner may recycle it, and only once: the simulator's
// batch loop does so after copying Release and Gate onto its wire
// packet. Frames never recycled are left to the garbage collector.
func (v *VM) Recycle(p *Packet) {
	p.Ref = nil
	p.next = v.free
	v.free = p
}

// feasible returns the earliest release for a packet given current
// bucket states, without committing, plus the gating bucket (the last
// stage that pushed the release later). A single forward pass is
// exact: token balances only grow with time, so feasibility at a later
// stage never invalidates an earlier one.
func (v *VM) feasible(q *dstQueue, p *Packet) (int64, uint8) {
	r := p.enq
	gate := GateNone
	n := p.Bytes
	if b := q.bucket; b != nil {
		if f := b.Free(r, n); f > r {
			r = f
			gate = GateDest
		}
	}
	if f := v.avg.Free(r, n); f > r {
		r = f
		gate = GateAvg
	}
	if f := v.cap.Free(r, n); f > r {
		r = f
		gate = GateCap
	}
	return r, gate
}

// Schedule commits queued packets with release stamps <= upTo, in
// chronological order, moving them to the ready heap.
func (v *VM) Schedule(upTo int64) {
	for v.queued > 0 {
		bestR := int64(math.MaxInt64)
		var best *dstQueue
		var bestSeq uint64
		var bestGate uint8
		for _, q := range v.dlist {
			h := q.head
			if h == nil {
				continue
			}
			r, gate := v.feasible(q, h)
			if best == nil || r < bestR || (r == bestR && h.seq < bestSeq) {
				best = q
				bestR = r
				bestSeq = h.seq
				bestGate = gate
			}
		}
		if best == nil || bestR > upTo {
			break
		}
		p := best.pop()
		v.queued--
		best.queuedBytes -= int64(p.Bytes)
		best.sentBytes += int64(p.Bytes)
		v.queuedTotal -= int64(p.Bytes)
		// Commit through the chain at the final release time.
		if b := best.bucket; b != nil {
			b.Commit(bestR, p.Bytes)
		}
		v.avg.Commit(bestR, p.Bytes)
		v.cap.Commit(bestR, p.Bytes)
		p.Release = bestR
		p.Gate = bestGate
		v.mx.noteCommit(p, bestR, v.queuedTotal)
		if v.onCommit != nil {
			v.onCommit(bestR, p.Bytes)
		}
		heap.Push(&v.ready, p)
	}
	if upTo > v.horizon {
		v.horizon = upTo
	}
}

// Pending reports packets not yet handed to the batcher (queued plus
// scheduled-but-unsent).
func (v *VM) Pending() int { return v.queued + v.ready.Len() }

// NextEventTime returns the earliest time at which this VM has a
// packet eligible to leave: the head of the ready heap or the earliest
// feasible release among queue heads.
func (v *VM) NextEventTime() (int64, bool) {
	best := int64(math.MaxInt64)
	ok := false
	if v.ready.Len() > 0 {
		best = v.ready[0].Release
		ok = true
	}
	for _, q := range v.dlist {
		if q.head == nil {
			continue
		}
		if r, _ := v.feasible(q, q.head); r < best {
			best = r
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

// PeekRelease returns the earliest committed release time. Callers
// must Schedule() past their horizon of interest first.
func (v *VM) PeekRelease() (int64, bool) {
	if v.ready.Len() == 0 {
		return 0, false
	}
	return v.ready[0].Release, true
}

// PopReady removes and returns the earliest committed packet if its
// release time is <= horizon.
func (v *VM) PopReady(horizon int64) (*Packet, bool) {
	if v.ready.Len() == 0 || v.ready[0].Release > horizon {
		return nil, false
	}
	return heap.Pop(&v.ready).(*Packet), true
}

func (v *VM) String() string {
	return fmt.Sprintf("VM(%d: B=%.0f S=%.0f Bmax=%.0f, %d queued)",
		v.ID, v.g.BandwidthBps, v.g.BurstBytes, v.g.BurstRateBps, v.Pending())
}

// packetHeap orders packets by (Release, seq).
type packetHeap []*Packet

func (h packetHeap) Len() int { return len(h) }
func (h packetHeap) Less(i, j int) bool {
	if h[i].Release != h[j].Release {
		return h[i].Release < h[j].Release
	}
	return h[i].seq < h[j].seq
}
func (h packetHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *packetHeap) Push(x interface{}) { *h = append(*h, x.(*Packet)) }
func (h *packetHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
