package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/isa"
)

// Binary trace format:
//
//	magic "P64T", u32 version
//	u32 name length, name bytes
//	u64 insts, u64 nullified, u64 branches, u64 region branches, u64 preddefs
//	u64 event count, then one 24-byte record per event:
//	    u8 kind, u8 flags, u8 guard, u8 pad, u32 pc, u64 step, u64 guardDist
//
// flags bit layout: taken, guardVal, region, guardImpliesTaken, executed,
// value, feedsBranch, feedsRegionBranch (LSB first). Little-endian.

var traceMagic = [4]byte{'P', '6', '4', 'T'}

const traceVersion = 1

const eventRecordSize = 24

const (
	fTaken = 1 << iota
	fGuardVal
	fRegion
	fGuardImpliesTaken
	fExecuted
	fValue
	fFeedsBranch
	fFeedsRegionBranch
)

func packFlags(ev *Event) byte {
	var f byte
	set := func(bit byte, v bool) {
		if v {
			f |= bit
		}
	}
	set(fTaken, ev.Taken)
	set(fGuardVal, ev.GuardVal)
	set(fRegion, ev.Region)
	set(fGuardImpliesTaken, ev.GuardImpliesTaken)
	set(fExecuted, ev.Executed)
	set(fValue, ev.Value)
	set(fFeedsBranch, ev.FeedsBranch)
	set(fFeedsRegionBranch, ev.FeedsRegionBranch)
	return f
}

func unpackFlags(ev *Event, f byte) {
	ev.Taken = f&fTaken != 0
	ev.GuardVal = f&fGuardVal != 0
	ev.Region = f&fRegion != 0
	ev.GuardImpliesTaken = f&fGuardImpliesTaken != 0
	ev.Executed = f&fExecuted != 0
	ev.Value = f&fValue != 0
	ev.FeedsBranch = f&fFeedsBranch != 0
	ev.FeedsRegionBranch = f&fFeedsRegionBranch != 0
}

// WriteTo serialises the trace. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: bufio.NewWriter(w)}
	cw.write(traceMagic[:])
	cw.u32(traceVersion)
	cw.u32(uint32(len(t.Name)))
	cw.write([]byte(t.Name))
	for _, v := range []uint64{t.Insts, t.Nullified, t.Branches, t.RegionBranches, t.PredDefs, uint64(len(t.Events))} {
		cw.u64(v)
	}
	var rec [eventRecordSize]byte
	for i := range t.Events {
		ev := &t.Events[i]
		rec[0] = byte(ev.Kind)
		rec[1] = packFlags(ev)
		rec[2] = byte(ev.Guard)
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:8], uint32(ev.PC))
		binary.LittleEndian.PutUint64(rec[8:16], ev.Step)
		binary.LittleEndian.PutUint64(rec[16:24], ev.GuardDist)
		cw.write(rec[:])
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// ReadTrace deserialises a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	return ReadTraceFrom(bufio.NewReader(r), nil)
}

// ReadTraceFrom deserialises a trace through the caller's bufio.Reader,
// which must already wrap the underlying stream (Reset a pooled reader
// onto it), into the caller's scratch event slice: events are appended to
// scratch[:0], reusing its backing array when the capacity suffices. The
// returned trace's Events aliases scratch's (possibly grown) array;
// ownership of both stays with the caller. The serving hot path pools
// both the reader and the event scratch, so steady-state batch decoding
// allocates nothing; decoding consumes exactly the trace's bytes from the
// reader.
func ReadTraceFrom(br *bufio.Reader, scratch []Event) (*Trace, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var u32buf [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32buf[:]), nil
	}
	var u64buf [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64buf[:]), nil
	}

	v, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen, err := readU32()
	if err != nil || nameLen > 1<<20 {
		return nil, fmt.Errorf("trace: bad name length (%v)", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tr := &Trace{Name: string(name)}
	header := []*uint64{&tr.Insts, &tr.Nullified, &tr.Branches, &tr.RegionBranches, &tr.PredDefs}
	for _, dst := range header {
		if *dst, err = readU64(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	count, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// Grow the event slice as records arrive rather than trusting the
	// declared count up front: a truncated or hostile header then fails
	// with a read error instead of a multi-gigabyte allocation.
	if cap(scratch) > 0 {
		tr.Events = scratch[:0]
	} else {
		tr.Events = make([]Event, 0, min(count, 1<<16))
	}
	var rec [eventRecordSize]byte
	for i := uint64(0); i < count; {
		// Bulk path: decode every whole record the reader already holds
		// in one Peek/Discard round, so the common case is one buffer
		// fill per ~170 records instead of a copying ReadFull per record.
		// Peek triggers a fill when fewer than one record is buffered, so
		// this also drives the underlying reads.
		if buf, _ := br.Peek(eventRecordSize); len(buf) >= eventRecordSize {
			n := br.Buffered() / eventRecordSize
			if rem := count - i; uint64(n) > rem {
				n = int(rem)
			}
			chunk, _ := br.Peek(n * eventRecordSize)
			// Grow once and decode into the final slots: a per-record
			// `var ev Event` + append would zero and then copy every
			// ~64-byte struct twice. Growth stays bounded by the bytes
			// actually buffered, so a hostile count still cannot force a
			// huge allocation.
			base := len(tr.Events)
			tr.Events = slices.Grow(tr.Events, n)[:base+n]
			for k := 0; k < n; k++ {
				// decodeRecord's body, by hand: at 110 cost units it is
				// over the inlining budget, and the call alone is ~25% of
				// a record's decode time at this loop's throughput.
				rec := chunk[k*eventRecordSize : (k+1)*eventRecordSize : (k+1)*eventRecordSize]
				ev := &tr.Events[base+k]
				ev.Kind = Kind(rec[0])
				unpackFlags(ev, rec[1])
				ev.Guard = isa.PReg(rec[2])
				ev.PC = uint64(binary.LittleEndian.Uint32(rec[4:8]))
				ev.Step = binary.LittleEndian.Uint64(rec[8:16])
				ev.GuardDist = binary.LittleEndian.Uint64(rec[16:24])
			}
			br.Discard(n * eventRecordSize)
			i += uint64(n)
			continue
		}
		// A record straddling the buffer tail of a short fill: fall back
		// to a blocking whole-record read, which also shapes truncation
		// errors exactly as the per-record loop did (io.EOF at a record
		// boundary, io.ErrUnexpectedEOF mid-record).
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		var ev Event
		decodeRecord(&ev, rec[:])
		tr.Events = append(tr.Events, ev)
		i++
	}
	return tr, nil
}

// decodeRecord unpacks one fixed-size event record.
func decodeRecord(ev *Event, rec []byte) {
	ev.Kind = Kind(rec[0])
	unpackFlags(ev, rec[1])
	ev.Guard = isa.PReg(rec[2])
	ev.PC = uint64(binary.LittleEndian.Uint32(rec[4:8]))
	ev.Step = binary.LittleEndian.Uint64(rec[8:16])
	ev.GuardDist = binary.LittleEndian.Uint64(rec[16:24])
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) write(b []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
}

func (c *countWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}

func (c *countWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}
