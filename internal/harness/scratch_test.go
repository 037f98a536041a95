package harness

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors/faulty"
)

// cloneCampaign deep-copies the parts of camp a later run could reach
// if it reused memory: every tool's outcomes and fault lists.
func cloneCampaign(camp *Campaign) *Campaign {
	out := *camp
	out.Results = slices.Clone(camp.Results)
	for i := range out.Results {
		res := &out.Results[i]
		res.Outcomes = slices.Clone(res.Outcomes)
		res.Exec.FailedCases = slices.Clone(res.Exec.FailedCases)
		res.Exec.Faults = slices.Clone(res.Exec.Faults)
	}
	return &out
}

// cloneGrid deep-copies a cell grid.
func cloneGrid(cells [][]CellResult) [][]CellResult {
	out := make([][]CellResult, len(cells))
	for t, row := range cells {
		out[t] = slices.Clone(row)
		for c := range out[t] {
			out[t][c].Outcomes = slices.Clone(row[c].Outcomes)
			if f := row[c].Fault; f != nil {
				fault := *f
				out[t][c].Fault = &fault
			}
		}
	}
	return out
}

// pooledScratchHoldsNothing takes a scratch from the pool and reports
// whether it had been used, failing t if any cell of its backing array
// is still set.
func pooledScratchHoldsNothing(t *testing.T) (used bool) {
	t.Helper()
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	cells := s.cells[:cap(s.cells)]
	for k, ce := range cells {
		if ce.Outcomes != nil || ce.Fault != nil || ce.Attempts != 0 || ce.Retries != 0 {
			t.Fatalf("pooled grid keeps cell %d of a finished run: %+v", k, ce)
		}
	}
	return len(cells) > 0
}

// TestScratchReuseIsInvisible: local runs share pooled cell grids and
// seed tables. Back-to-back campaigns (errors under count-miss, then
// panics under skip on the watchdog path, then an abort) must each equal
// the reference, which shares nothing; an earlier campaign's outcomes
// and faults must not change when later ones run; the grid RunShardCtx
// returns is its caller's and must survive later runs; and a released
// scratch must hold no cell.
func TestScratchReuseIsInvisible(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t, 20, 6)
	base := differentialBase(t, true)
	type run struct {
		cfg  faulty.Config
		opts Options
	}
	runs := []run{
		{faulty.Config{Mode: faulty.ModeTransient, Rate: 0.3, Seed: 1}, Options{Seed: 5, Workers: 3, Degraded: DegradedCountMiss}},
		{faulty.Config{Mode: faulty.ModePanic, Rate: 0.5, Seed: 2}, Options{Seed: 8, Workers: 3, PerToolTimeout: time.Minute, Degraded: DegradedSkip}},
		{faulty.Config{Mode: faulty.ModePanic, Rate: 0.5, Seed: 3}, Options{Seed: 2, Workers: 2, Degraded: DegradedAbort}},
	}
	wants := make([]*Campaign, len(runs))
	wantErrs := make([]error, len(runs))
	for i, r := range runs {
		wants[i], wantErrs[i] = refRun(t, corpus, faultySuite(t, base, r.cfg), r.opts)
	}
	if wants[0].Results[0].Exec.Failed == 0 || wants[1].Results[0].Exec.RecoveredPanics == 0 || wantErrs[2] == nil {
		t.Fatal("the runs must fail cells with errors, recover panics and abort")
	}

	var first, firstCopy *Campaign
	for round := range 3 {
		for i, r := range runs {
			got, err := RunCtx(ctx, corpus, faultySuite(t, base, r.cfg), r.opts)
			if (err == nil) != (wantErrs[i] == nil) || (err != nil && err.Error() != wantErrs[i].Error()) {
				t.Fatalf("round %d run %d: error %v, reference %v", round, i, err, wantErrs[i])
			}
			if err == nil && !sameCampaign(got, wants[i]) {
				t.Fatalf("round %d run %d: campaign differs from the reference", round, i)
			}
			if first == nil {
				first, firstCopy = got, cloneCampaign(got)
			}
		}
		if !sameCampaign(first, firstCopy) {
			t.Fatalf("round %d: the first campaign changed while later ones ran", round)
		}
	}

	// The shard grid outlives runs of the same shape; merged, it must
	// still give the reference campaign.
	shardBase := differentialBase(t, false)
	r := runs[1]
	shard, err := RunShardCtx(ctx, corpus, faultySuite(t, shardBase, r.cfg), r.opts, 0, len(corpus.Cases))
	if err != nil {
		t.Fatal(err)
	}
	shardCopy := cloneGrid(shard)
	for range 4 {
		if _, err := RunCtx(ctx, corpus, faultySuite(t, shardBase, r.cfg), r.opts); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(shard, shardCopy) {
		t.Fatal("a later RunCtx changed the grid RunShardCtx returned")
	}
	want, err := refRun(t, corpus, faultySuite(t, shardBase, r.cfg), r.opts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(corpus, shardBase, shard, r.opts.Degraded)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCampaign(merged, want) {
		t.Fatal("the merged shard grid differs from the reference")
	}

	// The race detector drops some pool puts at random, so look more
	// than once for a used scratch.
	used := false
	for range 8 {
		if _, err := RunCtx(ctx, corpus, faultySuite(t, base, runs[0].cfg), runs[0].opts); err != nil {
			t.Fatal(err)
		}
		used = pooledScratchHoldsNothing(t) || used
	}
	if !used {
		t.Fatal("no run left a used scratch in the pool")
	}
}

// TestFaultSlabRecordsStayPutAndReset: a record's address survives the
// slab's growth, reset zeroes every record handed out and reuses the
// chunks, and after faulting campaigns the pooled slab holds no record.
func TestFaultSlabRecordsStayPutAndReset(t *testing.T) {
	var s faultSlab
	taken := make([]*ExecError, 3*faultChunk+5)
	for i := range taken {
		taken[i] = s.take()
		if *taken[i] != (ExecError{}) {
			t.Fatalf("record %d handed out dirty", i)
		}
		taken[i].Case, taken[i].Msg = i, "boom"
	}
	for i, f := range taken {
		if f.Case != i || f != &s.chunks[i/faultChunk][i%faultChunk] {
			t.Fatalf("record %d moved or was overwritten: %+v", i, *f)
		}
	}
	chunks := len(s.chunks)
	s.reset()
	for i, f := range taken {
		if *f != (ExecError{}) {
			t.Fatalf("reset kept record %d: %+v", i, *f)
		}
	}
	if f := s.take(); f != taken[0] || len(s.chunks) != chunks {
		t.Fatal("reset did not reuse the first chunk")
	}

	ctx := context.Background()
	corpus := testCorpus(t, 20, 6)
	base := differentialBase(t, true)
	suite := faultySuite(t, base, faulty.Config{Mode: faulty.ModePanic, Rate: 0.5, Seed: 2})
	opts := Options{Seed: 8, Workers: 3, Degraded: DegradedSkip}
	used := false // the race detector drops some pool puts at random
	for range 8 {
		camp, err := RunCtx(ctx, corpus, suite, opts)
		if err != nil {
			t.Fatal(err)
		}
		if camp.Results[0].Exec.Failed == 0 {
			t.Fatal("the campaign must fail cells")
		}
		s := scratchPool.Get().(*scratch)
		if s.faults.n != 0 {
			t.Fatalf("pooled slab reports %d records in use", s.faults.n)
		}
		for c, chunk := range s.faults.chunks {
			for i := range chunk {
				if chunk[i] != (ExecError{}) {
					t.Fatalf("pooled slab keeps record %d of a finished run: %+v", c*faultChunk+i, chunk[i])
				}
			}
		}
		used = used || len(s.faults.chunks) > 0
		scratchPool.Put(s)
	}
	if !used {
		t.Fatal("no run left a used fault slab in the pool")
	}
}
