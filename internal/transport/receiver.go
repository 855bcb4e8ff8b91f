package transport

import (
	"slices"

	"repro/internal/netsim"
)

// onData processes an arriving data segment at the receiver: update
// the reassembly state and return a cumulative ack. DCTCP's exact echo
// reflects this packet's CE mark in the ack's ECE bit.
func (e *Endpoint) onData(p *netsim.Packet, seg *segment) {
	rs := e.rcv[seg.peerVM]
	if rs == nil {
		rs = &rcvState{ooo: make(map[int64]int64), pending: make(map[uint64]pendingMsg)}
		e.rcv[seg.peerVM] = rs
	}
	// Register the segment's message frame (idempotent).
	if seg.msgEnd > rs.rcvNxt {
		if _, ok := rs.pending[seg.msgID]; !ok {
			rs.pending[seg.msgID] = pendingMsg{end: seg.msgEnd, size: seg.msgSize}
		}
	}
	end := seg.seq + int64(seg.length)
	switch {
	case end <= rs.rcvNxt:
		// Stale duplicate; re-ack.
	case seg.seq <= rs.rcvNxt:
		// In-order (possibly overlapping) data.
		advanceFrom := rs.rcvNxt
		rs.rcvNxt = end
		rs.bytesIn += end - advanceFrom
		// Drain any now-contiguous buffered segments.
		for {
			oend, ok := rs.ooo[rs.rcvNxt]
			if !ok {
				// The buffer keys on segment start; scan for any range
				// covering rcvNxt (overlaps are possible after
				// go-back-N retransmission).
				found := false
				for s, e2 := range rs.ooo {
					if s <= rs.rcvNxt && e2 > rs.rcvNxt {
						oend, found = e2, true
						delete(rs.ooo, s)
						break
					}
					if e2 <= rs.rcvNxt {
						delete(rs.ooo, s) // fully stale
					}
				}
				if !found {
					break
				}
				rs.bytesIn += oend - rs.rcvNxt
				rs.rcvNxt = oend
				continue
			}
			delete(rs.ooo, rs.rcvNxt)
			rs.bytesIn += oend - rs.rcvNxt
			rs.rcvNxt = oend
		}
		// Deliver messages whose final byte has now arrived, in message
		// ID order: map iteration order is random, and a single drain can
		// complete several messages at once, so sorting keeps callback
		// order (and anything the application emits from it) deterministic.
		if len(rs.pending) > 0 {
			done := rs.doneScratch[:0]
			for id, pm := range rs.pending {
				if pm.end <= rs.rcvNxt {
					done = append(done, id)
				}
			}
			slices.Sort(done)
			for _, id := range done {
				pm := rs.pending[id]
				delete(rs.pending, id)
				if e.OnMessage != nil {
					e.OnMessage(seg.peerVM, id, pm.size)
				}
			}
			rs.doneScratch = done[:0]
		}
	default:
		// Out of order: buffer (keep the longest range per start).
		if old, ok := rs.ooo[seg.seq]; !ok || end > old {
			rs.ooo[seg.seq] = end
		}
	}
	e.sendAck(seg, rs, p.CE)
}

// sendAck returns a cumulative acknowledgment to the data sender.
func (e *Endpoint) sendAck(data *segment, rs *rcvState, ce bool) {
	f := e.f
	peer, ok := f.endpoints[data.peerVM]
	if !ok {
		return
	}
	ack := e.allocSegment()
	ack.peerVM = e.VMID
	ack.isAck = true
	ack.ackSeq = rs.rcvNxt
	ack.ece = ce
	ack.sentAt = data.sentAt // echo for RTT sampling
	p := e.sim.AllocPacket()
	p.Src = e.HostID
	p.Dst = peer.HostID
	p.SrcVM = e.VMID
	p.DstVM = data.peerVM
	p.Size = AckBytes
	p.Prio = e.opt.Prio
	p.Payload = ack
	f.send(e, p)
}

// allocSegment returns a zeroed segment from the endpoint's freelist,
// carving a chunk when it runs dry so a cold start allocates once per
// 64 segments instead of once each.
func (e *Endpoint) allocSegment() *segment {
	seg := e.freeSegs
	if seg == nil {
		chunk := make([]segment, 64)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		seg = &chunk[0]
	}
	e.freeSegs = seg.next
	*seg = segment{}
	return seg
}

// freeSegment returns a delivered segment to the endpoint's freelist.
func (e *Endpoint) freeSegment(seg *segment) {
	seg.next = e.freeSegs
	e.freeSegs = seg
}

// BytesReceived reports in-order payload bytes received from a peer VM.
func (e *Endpoint) BytesReceived(peerVM int) int64 {
	if rs, ok := e.rcv[peerVM]; ok {
		return rs.bytesIn
	}
	return 0
}
