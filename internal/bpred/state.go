package bpred

import (
	"fmt"

	"repro/internal/wire"
)

// Stater is implemented by predictors whose accumulated training state
// can be serialized and restored exactly. AppendState appends only the
// mutable state (tables, histories, weights) — never the configuration:
// a snapshot is restored into a predictor freshly constructed with the
// same configuration (internal/snap carries the sim spec for that), and
// LoadState validates the payload against the receiver's own geometry.
//
// The contract is byte-identical resume: after LoadState, the predictor
// must behave exactly as the snapshotted one would on every future
// Predict, PredictUpdate and ObserveBit call. Every concrete predictor
// kind in this package implements it.
type Stater interface {
	Predictor
	// AppendState appends the predictor's mutable state to buf.
	AppendState(buf []byte) []byte
	// LoadState restores mutable state from the cursor, reading exactly
	// the bytes AppendState wrote for an identically configured
	// predictor. On error the predictor's state is unspecified; callers
	// discard it.
	LoadState(c *wire.Cursor) error
}

// Counter tables serialize through ctrTable.appendState/loadState: the
// canonical encoding is one byte per counter regardless of the packed
// in-memory word layout, so snapshots taken before the packing decode
// (and re-encode) byte-identically.

// AppendState implements Stater. Static has no mutable state.
func (s *Static) AppendState(buf []byte) []byte { return buf }

// LoadState implements Stater.
func (s *Static) LoadState(*wire.Cursor) error { return nil }

// AppendState implements Stater.
func (b *Bimodal) AppendState(buf []byte) []byte { return b.table.appendState(buf) }

// LoadState implements Stater.
func (b *Bimodal) LoadState(c *wire.Cursor) error { return b.table.loadState(c) }

// AppendState implements Stater.
func (g *GShare) AppendState(buf []byte) []byte {
	buf = wire.AppendU64(buf, g.hist)
	return g.table.appendState(buf)
}

// LoadState implements Stater.
func (g *GShare) LoadState(c *wire.Cursor) error {
	g.hist = c.U64()
	return g.table.loadState(c)
}

// AppendState implements Stater.
func (g *GSelect) AppendState(buf []byte) []byte {
	buf = wire.AppendU64(buf, g.hist)
	return g.table.appendState(buf)
}

// LoadState implements Stater.
func (g *GSelect) LoadState(c *wire.Cursor) error {
	g.hist = c.U64()
	return g.table.loadState(c)
}

// AppendState implements Stater.
func (g *GAg) AppendState(buf []byte) []byte {
	buf = wire.AppendU64(buf, g.hist)
	return g.table.appendState(buf)
}

// LoadState implements Stater.
func (g *GAg) LoadState(c *wire.Cursor) error {
	g.hist = c.U64()
	return g.table.loadState(c)
}

// AppendState implements Stater.
func (l *Local) AppendState(buf []byte) []byte {
	for _, h := range l.hists {
		buf = wire.AppendU64(buf, h)
	}
	return l.table.appendState(buf)
}

// LoadState implements Stater.
func (l *Local) LoadState(c *wire.Cursor) error {
	for i := range l.hists {
		l.hists[i] = c.U64()
	}
	return l.table.loadState(c)
}

// AppendState implements Stater: the global and local components'
// state followed by the chooser table.
func (t *Tournament) AppendState(buf []byte) []byte {
	buf = t.global.AppendState(buf)
	buf = t.local.AppendState(buf)
	return t.chooser.appendState(buf)
}

// LoadState implements Stater.
func (t *Tournament) LoadState(c *wire.Cursor) error {
	if err := t.global.LoadState(c); err != nil {
		return err
	}
	if err := t.local.LoadState(c); err != nil {
		return err
	}
	return t.chooser.loadState(c)
}

// AppendState implements Stater: the history, the agree counter table,
// the per-set round-robin cursors, and every bias-table way (full tag
// plus valid/bias flags).
func (a *Agree) AppendState(buf []byte) []byte {
	buf = wire.AppendU64(buf, a.hist)
	buf = a.table.appendState(buf)
	buf = append(buf, a.rr...)
	for i := range a.bias {
		e := &a.bias[i]
		buf = wire.AppendU64(buf, e.tag)
		var f byte
		if e.valid {
			f |= 1
		}
		if e.bias {
			f |= 2
		}
		buf = append(buf, f)
	}
	return buf
}

// LoadState implements Stater.
func (a *Agree) LoadState(c *wire.Cursor) error {
	a.hist = c.U64()
	if err := a.table.loadState(c); err != nil {
		return err
	}
	rr := c.Take(len(a.rr))
	if rr == nil {
		return c.Err()
	}
	for i, v := range rr {
		if v >= agreeWays {
			return c.Fail(fmt.Errorf("bpred: agree rr cursor %d out of range (%d)", i, v))
		}
		a.rr[i] = v
	}
	for i := range a.bias {
		e := &a.bias[i]
		e.tag = c.U64()
		f := c.U8()
		if f > 3 {
			return c.Fail(fmt.Errorf("bpred: agree bias flags %d out of range (%d)", i, f))
		}
		e.valid = f&1 != 0
		e.bias = f&2 != 0
	}
	return c.Err()
}

// AppendState implements Stater: the history then every weight vector,
// one signed byte per weight. Rows are written without their stride
// padding, so the encoding is identical to the retired slice-of-rows
// layout's.
func (p *Perceptron) AppendState(buf []byte) []byte {
	buf = wire.AppendU64(buf, p.hist)
	for e := uint64(0); e <= p.idxMask; e++ {
		for _, v := range p.row(e) {
			buf = append(buf, byte(v))
		}
	}
	return buf
}

// LoadState implements Stater.
func (p *Perceptron) LoadState(c *wire.Cursor) error {
	p.hist = c.U64()
	for e := uint64(0); e <= p.idxMask; e++ {
		w := p.row(e)
		row := c.Take(len(w))
		if row == nil {
			return c.Err()
		}
		for i, b := range row {
			w[i] = int8(b)
		}
	}
	return c.Err()
}

// Compile-time interface checks: every concrete kind is snapshottable.
var (
	_ Stater = (*Static)(nil)
	_ Stater = (*Bimodal)(nil)
	_ Stater = (*GShare)(nil)
	_ Stater = (*GSelect)(nil)
	_ Stater = (*GAg)(nil)
	_ Stater = (*Local)(nil)
	_ Stater = (*Tournament)(nil)
	_ Stater = (*Agree)(nil)
	_ Stater = (*Perceptron)(nil)
)
