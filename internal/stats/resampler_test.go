package stats

import "testing"

// TestResamplerMatchesResample is the bit-exact differential of the
// per-table resampler against Resample: the same counts and the same
// generator state after every draw. The tables have zero codes, one
// distinct code, codes whose binomial p is above 0.5, records left far
// outside a code's memo window (tiny tables, and a first code that
// takes nearly everything), and totals beyond the log-factorial table.
func TestResamplerMatchesResample(t *testing.T) {
	gen := NewRNG(37)
	var tables []*[16]int
	for trial := range 60 {
		base := new([16]int)
		size := []int{3, 40, 561, 3000}[trial%4]
		codes := 1 + gen.Intn(16)
		for range size {
			base[gen.Intn(codes)]++
		}
		for c := range base { // zero some codes out
			if gen.Intn(3) == 0 {
				base[c] = 0
			}
		}
		tables = append(tables, base)
	}
	tables = append(tables,
		&[16]int{},                           // empty
		&[16]int{5: 12},                      // single-valued
		&[16]int{15: 1},                      // single record
		&[16]int{0: 900, 9: 3, 14: 1},        // p above 0.5 first, then a sliver
		&[16]int{1: 2, 2: 2, 3: 1},           // windows of a tiny table
		&[16]int{0: 1, 1: 1000, 2: 1, 3: 50}, // a lopsided middle code
	)
	for ti, base := range tables {
		ref, got := NewRNG(uint64(ti)+1), NewRNG(uint64(ti)+1)
		rs := newResampler(base)
		var want, out [16]int
		for d := range 400 {
			ref.Resample(base, &want)
			rs.draw(got, &out)
			if out != want {
				t.Fatalf("table %d %v, draw %d: resampler %v, Resample %v", ti, *base, d, out, want)
			}
			if got.s != ref.s {
				t.Fatalf("table %d %v, draw %d: generator states differ", ti, *base, d)
			}
		}
	}
}
