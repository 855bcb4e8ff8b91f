package pacer

import (
	"container/heap"
	"math"
)

// Batch is one NIC I/O batch: a back-to-back train of data and void
// frames the NIC transmits at line rate. Void frames occupy wire time
// so that each data frame departs at (approximately) its Release
// stamp (paper Figure 9).
type Batch struct {
	Packets []*Packet
	// Start is the wire time of the first byte; End is the wire time
	// at which the last frame finishes serializing.
	Start, End int64
	// DataBytes and VoidBytes split the batch's wire bytes.
	DataBytes, VoidBytes int
}

// DataPackets counts non-void frames.
func (b *Batch) DataPackets() int {
	n := 0
	for _, p := range b.Packets {
		if !p.Void {
			n++
		}
	}
	return n
}

// Batcher implements Paced IO Batching (paper §4.3.1): it assembles
// fixed-duration batches, inserting void frames to realize the
// inter-packet gaps the token buckets demanded, so pacing precision
// survives NIC batching. One Batcher serves one NIC.
type Batcher struct {
	// LineRateBps is the NIC rate in bytes/sec.
	LineRateBps float64
	// BatchNs is the wire duration of one batch; the paper uses 50 µs.
	BatchNs int64
	// MaxVoidBytes caps individual void frames (an MTU-sized void
	// wastes fewer per-frame cycles than many minimum ones).
	MaxVoidBytes int
	// DisableVoids turns off void insertion (ablation): data packets
	// are sent back-to-back from the top of the batch, as a plain
	// batching NIC would.
	DisableVoids bool
	// Metrics, if set, observes every non-empty batch (batch, byte and
	// frame counters). nil costs one branch per Build.
	Metrics *BatchMetrics

	// batch and voids are reused by every Build: voids[:nVoid] are the
	// void frames of the current batch.
	batch Batch
	voids []*Packet
	nVoid int
}

// NewBatcher returns a batcher with the paper's defaults for the given
// line rate.
func NewBatcher(lineRateBps float64) *Batcher {
	return &Batcher{
		LineRateBps:  lineRateBps,
		BatchNs:      50_000, // 50 µs
		MaxVoidBytes: 1538,   // MTU frame incl. overhead
	}
}

// wireNs returns the serialization time of n bytes.
func (b *Batcher) wireNs(n int) int64 {
	return int64(math.Round(float64(n) / b.LineRateBps * 1e9))
}

// gapBytes returns the wire bytes spanning a nanosecond gap.
func (b *Batcher) gapBytes(ns int64) int {
	return int(math.Round(float64(ns) / 1e9 * b.LineRateBps))
}

// Build assembles the batch that occupies wire time [start,
// start+BatchNs), drawing data packets from the given VMs in global
// release order. Packets whose release stamp falls beyond the batch
// window remain queued. Void frames are synthesized so each data frame
// departs within one MinVoidBytes slot of its stamp; per the paper,
// voids are only generated while another data packet is waiting, so an
// idle tail generates no filler.
//
// The returned batch and its void frames belong to the Batcher and are
// overwritten by the next Build: consume a batch (or copy what you
// need) before building the next one. Its data frames are the VMs'
// own and stay valid until handed to VM.Recycle.
func (b *Batcher) Build(start int64, vms []*VM) *Batch {
	end := start + b.BatchNs
	batch := &b.batch
	*batch = Batch{Packets: batch.Packets[:0], Start: start}
	b.nVoid = 0
	cursor := start

	// Commit release stamps chronologically up to the batch horizon.
	for _, vm := range vms {
		vm.Schedule(end)
	}

	for cursor < end {
		// Find the globally earliest queued packet.
		var src *VM
		var best int64 = math.MaxInt64
		for _, vm := range vms {
			if r, ok := vm.PeekRelease(); ok && r < best {
				best = r
				src = vm
			}
		}
		if src == nil || best >= end {
			break // nothing (more) eligible for this batch window
		}
		p, _ := src.PopReady(end)

		if !b.DisableVoids && p.Release > cursor {
			gap := b.gapBytes(p.Release - cursor)
			if gap > b.gapBytes(end-cursor) {
				gap = b.gapBytes(end - cursor)
			}
			cursor = b.pad(batch, cursor, gap)
		}
		if cursor >= end {
			// Padding consumed the window; the packet belongs to the
			// next batch.
			heap.Push(&src.ready, p)
			break
		}
		p.Wire = cursor
		batch.Packets = append(batch.Packets, p)
		batch.DataBytes += p.Bytes
		cursor += b.wireNs(p.Bytes)
	}
	batch.End = cursor
	b.Metrics.noteBatch(batch)
	return batch
}

// pad appends void frames covering gap wire bytes starting at cursor
// and returns the new cursor. The residual below MinVoidBytes is
// rounded to the nearest legal layout: an extra minimum void if the
// residual exceeds half a slot (data late by < 34 ns), nothing
// otherwise (data early by < 34 ns).
func (b *Batcher) pad(batch *Batch, cursor int64, gap int) int64 {
	for gap >= MinVoidBytes {
		n := gap
		if n > b.MaxVoidBytes {
			n = b.MaxVoidBytes
		}
		// Never leave an illegal residual between MinVoidBytes-1 and 1.
		if rem := gap - n; rem > 0 && rem < MinVoidBytes {
			n = gap - MinVoidBytes
			if n < MinVoidBytes {
				// gap in [MinVoid, 2*MinVoid): emit a single void of
				// the full gap (it is <= 2*MaxVoidBytes in practice).
				n = gap
			}
		}
		batch.Packets = append(batch.Packets, b.void(n, cursor))
		batch.VoidBytes += n
		cursor += b.wireNs(n)
		gap -= n
	}
	if gap >= MinVoidBytes/2 {
		batch.Packets = append(batch.Packets, b.void(MinVoidBytes, cursor))
		batch.VoidBytes += MinVoidBytes
		cursor += b.wireNs(MinVoidBytes)
	}
	return cursor
}

// void returns the next pooled void frame, set to n bytes at wire
// time at.
func (b *Batcher) void(n int, at int64) *Packet {
	if b.nVoid == len(b.voids) {
		b.voids = append(b.voids, new(Packet))
	}
	v := b.voids[b.nVoid]
	b.nVoid++
	*v = Packet{Bytes: n, Void: true, Wire: at}
	return v
}

// HostPacer couples a NIC batcher with the VMs it serves and emulates
// the paper's soft-timer scheduling: a new batch is built when the
// previous one finishes transmitting (the DMA-completion interrupt),
// never on a dedicated timer.
type HostPacer struct {
	Batcher *Batcher
	vms     []*VM
	lastEnd int64
}

// NewHostPacer returns a pacer for one host NIC.
func NewHostPacer(batcher *Batcher) *HostPacer {
	return &HostPacer{Batcher: batcher}
}

// AddVM registers a VM whose traffic this NIC carries.
func (h *HostPacer) AddVM(vm *VM) { h.vms = append(h.vms, vm) }

// VMs returns the registered VMs.
func (h *HostPacer) VMs() []*VM { return h.vms }

// Pending reports queued data packets across all VMs.
func (h *HostPacer) Pending() int {
	n := 0
	for _, vm := range h.vms {
		n += vm.Pending()
	}
	return n
}

// NextBatch builds the next batch at or after now. It returns nil if
// no packet is eligible yet (an idle NIC generates nothing; voids only
// space waiting data). Batches are never built ahead of `now`: a
// packet due later must wait for a wake at its release time, so
// packets arriving in the interim are not locked out of the window
// (the caller re-arms using the earliest NextEventTime).
func (h *HostPacer) NextBatch(now int64) *Batch {
	start := now
	if h.lastEnd > start {
		start = h.lastEnd
	}
	earliest := int64(math.MaxInt64)
	for _, vm := range h.vms {
		if r, ok := vm.NextEventTime(); ok && r < earliest {
			earliest = r
		}
	}
	if earliest == math.MaxInt64 || earliest >= start+h.Batcher.BatchNs {
		return nil
	}
	// A fresh busy period (the NIC idled since the last batch) starts
	// at the first release: dead air needs no voids. Within a busy
	// period batches chain back-to-back and voids fill every gap —
	// that is what keeps the wire at line rate in Figure 10b.
	if earliest > start && h.lastEnd < now {
		start = earliest
	}
	batch := h.Batcher.Build(start, h.vms)
	if len(batch.Packets) == 0 {
		return nil
	}
	h.lastEnd = batch.End
	return batch
}
