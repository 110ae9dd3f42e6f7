// Package profile collects execution profiles used for profile-guided
// if-conversion, mirroring the IMPACT methodology the paper's binaries
// came from: hyperblock formation there was driven by profiled execution
// weights and branch behaviour, converting a region only when the expected
// misprediction savings outweigh the cost of fetching both paths.
//
// A profile is a view of a program's recorded execution
// (internal/record): FromRecording derives it in one pass over the
// recorded steps, so a caller that already holds the recording — the
// experiment harness records each program once — profiles without
// emulating again.
package profile

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/prog"
	"repro/internal/record"
)

// Profile holds per-instruction execution counts and per-branch predictor
// behaviour for one program run.
type Profile struct {
	// Exec[i] is the number of times instruction i was fetched.
	Exec []uint64
	// Taken[i] is the number of times branch i redirected control.
	Taken []uint64
	// Mispredict[i] is the number of times the reference predictor
	// mispredicted conditional branch i.
	Mispredict []uint64
	// Insts is the total dynamic instruction count.
	Insts uint64
}

// BlockExec returns the execution count of the block spanning
// [start, end) using its first instruction as the representative.
func (p *Profile) BlockExec(start int) uint64 {
	if start < 0 || start >= len(p.Exec) {
		return 0
	}
	return p.Exec[start]
}

// Collect runs the program to completion, counting fetches per
// instruction and mispredictions per conditional branch under the given
// reference predictor (reset before use). A nil predictor defaults to
// gshare 12/8. It records the run once (record.Program) and derives the
// profile from the recording (FromRecording).
func Collect(pr *prog.Program, pred bpred.Predictor, limit uint64) (*Profile, error) {
	x, err := record.Program(pr, limit)
	if err != nil {
		return nil, err
	}
	return FromRecording(x, pred)
}

// FromRecording derives the profile of a recorded run under the given
// reference predictor (reset before use; nil defaults to gshare 12/8):
// the profile Collect returns for the same program and limit. A
// recording that ended in a limit stop or a fault is returned as the
// error, prefixed "profile: ".
func FromRecording(x *record.Recording, pred bpred.Predictor) (*Profile, error) {
	if x.Err != nil {
		return nil, fmt.Errorf("profile: %w", x.Err)
	}
	if pred == nil {
		pred = bpred.NewGShare(12, 8)
	}
	pred.Reset()
	n := len(x.Insts)
	p := &Profile{
		Exec:       make([]uint64, n),
		Taken:      make([]uint64, n),
		Mispredict: make([]uint64, n),
		Insts:      uint64(len(x.Steps)),
	}
	for _, s := range x.Steps {
		idx := s.Index()
		p.Exec[idx]++
		taken := s.Taken()
		if taken {
			p.Taken[idx]++
		}
		if x.Insts[idx].Event == record.Branch {
			if pred.Predict(uint64(idx)) != taken {
				p.Mispredict[idx]++
			}
			pred.Update(uint64(idx), taken)
		}
	}
	return p, nil
}
