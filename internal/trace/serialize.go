package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// Binary trace format:
//
//	magic "P64T", u32 version
//	u32 name length, name bytes
//	u64 insts, u64 nullified, u64 branches, u64 region branches, u64 preddefs
//	u64 event count, then one 24-byte record per event:
//	    u8 kind, u8 flags, u8 guard, u8 pad, u32 pc, u64 step, u64 guardDist
//
// kind is KindBranch (0) or KindPredDef (1); a reader refuses any other.
// flags is Event.Flags (FlagTaken first, LSB). Little-endian. Writers
// store the pad byte as zero; readers ignore it. A record is an Event's
// memory image: decoding reads the records straight into the event
// slice and then sets the multi-byte fields from their little-endian
// bytes, which also makes it correct on a big-endian host.

var traceMagic = [4]byte{'P', '6', '4', 'T'}

const traceVersion = 1

const eventRecordSize = 24

// decodeChunk bounds, in events, how far a decode grows the event slice
// ahead of the bytes it has read, so a hostile or truncated header fails
// with a read error after at most one chunk of allocation.
const decodeChunk = 16 << 10

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
		rec[1] = byte(ev.Flags)
		rec[2] = byte(ev.Guard)
		binary.LittleEndian.PutUint32(rec[4:8], ev.PC)
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
	tr.Events = scratch[:0]
	for read := uint64(0); read < count; {
		// Grow one chunk and read its records straight into the new
		// events: bufio passes reads of at least its buffer size to the
		// underlying stream, so past what it already buffered the bytes
		// land in event memory without an extra copy.
		n := int(min(count-read, decodeChunk))
		base := len(tr.Events)
		if cap(tr.Events)-base < n {
			// Double, as append would, in one allocation: slices.Grow
			// also allocates its zero-filled operand when the compiler
			// instruments the code (-race).
			grown := make([]Event, base, base+max(base, n))
			copy(grown, tr.Events)
			tr.Events = grown
		}
		tr.Events = tr.Events[:base+n]
		chunk := tr.Events[base:]
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&chunk[0])), n*eventRecordSize)
		if got, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", read+uint64(got/eventRecordSize), err)
		}
		// Kind, Flags and Guard are single bytes and already in place;
		// clear the pad byte and set the wider fields from their
		// little-endian bytes. The kinds are ORed together so one check
		// per chunk refuses any kind but a branch or a predicate define
		// (0 and 1).
		var kinds Kind
		for i := range chunk {
			ev := &chunk[i]
			rec := (*[eventRecordSize]byte)(unsafe.Pointer(ev))
			rec[3] = 0
			kinds |= ev.Kind
			ev.PC = binary.LittleEndian.Uint32(rec[4:8])
			ev.Step = binary.LittleEndian.Uint64(rec[8:16])
			ev.GuardDist = binary.LittleEndian.Uint64(rec[16:24])
		}
		if kinds > KindPredDef {
			i := slices.IndexFunc(chunk, func(ev Event) bool { return ev.Kind > KindPredDef })
			return nil, fmt.Errorf("trace: event %d: unknown kind %d", read+uint64(i), chunk[i].Kind)
		}
		read += uint64(n)
	}
	return tr, nil
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
