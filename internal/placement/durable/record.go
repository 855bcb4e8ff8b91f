// Package durable makes the placement manager crash-safe: every
// control-plane mutation (place, reject, remove, fail, restore — the
// primitives Recover's ladder also decomposes into) is appended to a
// write-ahead log before it is applied, and the full admitted set is
// periodically snapshotted. Recovery loads the latest valid snapshot,
// replays the WAL tail through the manager's Apply* primitives (which
// reproduce port state bit-for-bit), re-derives every cached index and
// re-proves VerifyInvariants. Torn or corrupt log tails are truncated
// to the last valid record; a log whose first record no longer meets
// the snapshot (a gap) recovers what it can and enters safe mode,
// rejecting new admissions rather than risking overbooked guarantees.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/placement"
	"repro/internal/tenant"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(u uint64) float64 { return math.Float64frombits(u) }

// Record framing: every WAL record is
//
//	u32 payload length | u32 CRC32-IEEE(payload) | payload
//
// with all integers little-endian. The payload is
//
//	u64 seq | u8 op | op-specific fields
//
// where op-specific fields are fixed-width scalars plus one
// length-prefixed name string and one length-prefixed server list —
// compact enough that a datacenter-sized placement record stays well
// under a filesystem block.
const (
	recordHeaderLen = 8
	// maxRecordLen bounds a single payload; a decoder meeting a larger
	// claimed length treats the tail as corrupt rather than allocating.
	// A placement record costs ~70 bytes + 2/VM + name, so 1 MiB covers
	// any real topology with orders of magnitude to spare.
	maxRecordLen = 1 << 20
)

// ErrTornTail reports a record that stops mid-frame: the bytes are a
// prefix of a valid record (a crash mid-write), so recovery truncates
// here and keeps everything before. Any other decode error means a
// framed record whose CRC or payload does not parse: the log is damaged
// at that point and recovery truncates too, but counts it as corrupt.
var ErrTornTail = errors.New("durable: torn record tail")

// Record is one decoded WAL record: a sequence number plus the
// placement mutation it logs.
type Record struct {
	Seq uint64
	Mut placement.Mutation
}

// appendRecord encodes rec into buf (appending) and returns the
// extended slice. With a pre-grown buffer it performs no allocations —
// the WAL append hot path reuses one buffer across calls.
func appendRecord(buf []byte, seq uint64, mut *placement.Mutation) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	p := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(mut.Op))
	switch mut.Op {
	case placement.MutPlace:
		buf = appendSpec(buf, &mut.Spec)
		buf = appendServers(buf, mut.Servers)
	case placement.MutReject, placement.MutRemove:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(mut.TenantID)))
	case placement.MutFail, placement.MutRestore:
		buf = appendServers(buf, mut.Servers)
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

func appendSpec(buf []byte, s *tenant.Spec) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.ID)))
	name := s.Name
	if len(name) > 0xffff {
		name = name[:0xffff]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.VMs))
	buf = append(buf, byte(s.Class))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Guarantee.BandwidthBps))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Guarantee.BurstBytes))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Guarantee.DelayBound))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Guarantee.BurstRateBps))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.FaultDomains))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.CPUPerVM))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.MemoryPerVM))
	return buf
}

func appendServers(buf []byte, servers []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(servers)))
	for _, s := range servers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// decodeRecord decodes the record at the front of b. It returns the
// record and the number of bytes consumed, or ErrTornTail (b ends
// mid-frame) or a "corrupt record" error (CRC or payload invalid). It
// never panics on arbitrary input and never allocates beyond the
// record's own fields.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < recordHeaderLen {
		return Record{}, 0, ErrTornTail
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("durable: corrupt record: claimed length %d", n)
	}
	if len(b) < recordHeaderLen+int(n) {
		return Record{}, 0, ErrTornTail
	}
	payload := b[recordHeaderLen : recordHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, fmt.Errorf("durable: corrupt record: CRC mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, recordHeaderLen + int(n), nil
}

func decodePayload(p []byte) (Record, error) {
	var rec Record
	d := reader{b: p}
	rec.Seq = d.u64()
	rec.Mut.Op = placement.MutationOp(d.u8())
	switch rec.Mut.Op {
	case placement.MutPlace:
		d.spec(&rec.Mut.Spec)
		rec.Mut.Servers = d.servers()
	case placement.MutReject, placement.MutRemove:
		rec.Mut.TenantID = int(int64(d.u64()))
	case placement.MutFail, placement.MutRestore:
		rec.Mut.Servers = d.servers()
	default:
		return Record{}, fmt.Errorf("durable: corrupt record: unknown op %d", uint8(rec.Mut.Op))
	}
	if d.bad {
		return Record{}, fmt.Errorf("durable: corrupt record: truncated payload")
	}
	if len(d.b) != 0 {
		return Record{}, fmt.Errorf("durable: corrupt record: %d trailing payload bytes", len(d.b))
	}
	return rec, nil
}

// reader is a bounds-checked cursor over a payload: any read past the
// end sets bad and returns zeros instead of panicking.
type reader struct {
	b   []byte
	bad bool
}

func (d *reader) take(n int) []byte {
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *reader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *reader) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *reader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *reader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *reader) f64() float64 { return floatFrom(d.u64()) }

func (d *reader) spec(s *tenant.Spec) {
	s.ID = int(int64(d.u64()))
	nameLen := int(d.u16())
	if b := d.take(nameLen); b != nil {
		s.Name = string(b)
	}
	s.VMs = int(d.u32())
	s.Class = tenant.Class(d.u8())
	s.Guarantee.BandwidthBps = d.f64()
	s.Guarantee.BurstBytes = d.f64()
	s.Guarantee.DelayBound = d.f64()
	s.Guarantee.BurstRateBps = d.f64()
	s.FaultDomains = int(d.u32())
	s.CPUPerVM = d.f64()
	s.MemoryPerVM = d.f64()
}

func (d *reader) servers() []int {
	n := int(d.u32())
	// Cap the claimed count by what the remaining bytes could actually
	// hold, so a corrupt length cannot drive a huge allocation; the
	// exhausted-cursor check below still fails the record.
	if n > len(d.b)/4 {
		d.bad = true
		return nil
	}
	if d.bad || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(d.u32()))
	}
	return out
}
