package harness

import (
	"errors"

	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// Outcome codes name the confusion-matrix cell of one sink outcome in a
// single byte. The bootstrap resamples these codes instead of the
// outcomes themselves: stats.Tally counts one byte per drawn index and
// Fold turns the counts into a matrix, so a resample never copies an
// outcome. The folded matrices hold the same integers as summing
// SinkOutcome.Confusion over the same indices, so every metric computed
// from them is bit-identical.
const (
	codeTP = iota
	codeFP
	codeFN
	codeTN
)

// codeCells maps each code to its one-instance confusion matrix.
var codeCells = [4]metrics.Confusion{codeTP: {TP: 1}, codeFP: {FP: 1}, codeFN: {FN: 1}, codeTN: {TN: 1}}

// code returns the outcome's confusion-cell code.
func (o SinkOutcome) code() uint8 {
	switch {
	case o.Vulnerable && o.Flagged:
		return codeTP
	case o.Vulnerable:
		return codeFN
	case o.Flagged:
		return codeFP
	default:
		return codeTN
	}
}

// foldCounts turns per-code counts into a confusion matrix.
func foldCounts(cnt *[4]int) metrics.Confusion {
	return metrics.Confusion{TP: cnt[codeTP], FP: cnt[codeFP], FN: cnt[codeFN], TN: cnt[codeTN]}
}

// OutcomeCodes is one tool's resampling table: the code of every sink
// outcome, in outcome order.
type OutcomeCodes []uint8

// Codes encodes the tool's outcomes for resampling.
func (r *ToolResult) Codes() OutcomeCodes {
	codes := make(OutcomeCodes, len(r.Outcomes))
	for i, o := range r.Outcomes {
		codes[i] = o.code()
	}
	return codes
}

// Fold turns the per-code counts of a resample of c (see stats.Tally)
// into a confusion matrix.
func (OutcomeCodes) Fold(cnt *[16]int) metrics.Confusion {
	return foldCounts((*[4]int)(cnt[:4]))
}

// PairCodes is the joint resampling table of two tools from the same
// campaign: entry i is 4*code(a_i) + code(b_i), so one count over a
// resample yields both tools' matrices on the same sinks.
type PairCodes []uint8

// NewPairCodes encodes two tools' outcomes jointly. Both tools must come
// from the same campaign, so their outcome slices align sink for sink.
func NewPairCodes(a, b *ToolResult) (PairCodes, error) {
	if len(a.Outcomes) != len(b.Outcomes) {
		return nil, errors.New("harness: tools come from different campaigns")
	}
	codes := make(PairCodes, len(a.Outcomes))
	for i := range codes {
		codes[i] = a.Outcomes[i].code()<<2 | b.Outcomes[i].code()
	}
	return codes, nil
}

// Fold turns the per-code counts of a resample of p (see stats.Tally)
// into the two tools' confusion matrices.
func (PairCodes) Fold(cnt *[16]int) (a, b metrics.Confusion) {
	var ca, cb [4]int
	for code, n := range cnt {
		ca[code>>2] += n
		cb[code&3] += n
	}
	return foldCounts(&ca), foldCounts(&cb)
}

// McNemar runs McNemar's paired test on the two tools' classification
// correctness. A tool is correct on a sink when its code is TP or TN; B
// counts the sinks only tool a gets right, C those only tool b does.
func (p PairCodes) McNemar() (stats.McNemarResult, error) {
	if len(p) == 0 {
		return stats.McNemarResult{}, stats.ErrEmpty
	}
	correct := func(code uint8) bool { return code == codeTP || code == codeTN }
	var b, c int
	for _, code := range p {
		switch aOK, bOK := correct(code>>2), correct(code&3); {
		case aOK && !bOK:
			b++
		case !aOK && bOK:
			c++
		}
	}
	return stats.McNemar(b, c)
}
