package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/metrics"
)

// collectProgress runs a campaign with a recording listener and returns
// the campaign plus every event in delivery order.
func collectProgress(t *testing.T, workers int) (*Campaign, []ProgressEvent) {
	t.Helper()
	var (
		mu     sync.Mutex
		events []ProgressEvent
	)
	ctx := WithProgress(context.Background(), func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	camp, err := RunCtx(ctx, testCorpus(t, 25, 1), testTools(t), Options{Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return camp, events
}

func TestProgressEventsCoverEveryCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		camp, events := collectProgress(t, workers)
		total := len(camp.Results) * len(camp.Corpus.Cases)
		if len(events) != total {
			t.Fatalf("workers=%d: %d events, want one per cell (%d)", workers, len(events), total)
		}

		// Done values are exactly 1..total, each seen once (monotone
		// counter), and every event agrees on Total.
		seenDone := make([]bool, total+1)
		perCell := map[[2]interface{}]int{}
		var sum metrics.Confusion
		for _, ev := range events {
			if ev.Total != total {
				t.Fatalf("workers=%d: event Total = %d, want %d", workers, ev.Total, total)
			}
			if ev.Done < 1 || ev.Done > total || seenDone[ev.Done] {
				t.Fatalf("workers=%d: Done value %d out of range or duplicated", workers, ev.Done)
			}
			seenDone[ev.Done] = true
			perCell[[2]interface{}{ev.Tool, ev.Case}]++
			if ev.Failed {
				t.Errorf("workers=%d: fault-free campaign reported failed cell %s/%d", workers, ev.Tool, ev.Case)
			}
			sum = sum.Add(ev.Confusion)
		}
		if len(perCell) != total {
			t.Fatalf("workers=%d: events cover %d distinct cells, want %d", workers, len(perCell), total)
		}

		// Accumulated confusion deltas equal the campaign's pooled
		// matrices — the incremental estimates converge to the final ones.
		var want metrics.Confusion
		for _, res := range camp.Results {
			want = want.Add(res.Overall)
		}
		if sum != want {
			t.Errorf("workers=%d: summed deltas %+v != pooled campaign %+v", workers, sum, want)
		}
	}
}

// TestProgressEventsCarryTheirRun: every event of one campaign run names
// the same run, and a later run on the same context gets a larger ID.
func TestProgressEventsCarryTheirRun(t *testing.T) {
	runIDs := func(events []ProgressEvent) map[uint64]int {
		ids := map[uint64]int{}
		for _, ev := range events {
			ids[ev.Run]++
		}
		return ids
	}
	_, first := collectProgress(t, 4)
	_, second := collectProgress(t, 1)
	a, b := runIDs(first), runIDs(second)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("run IDs per campaign = %v and %v, want one each", a, b)
	}
	if first[0].Run == 0 || second[0].Run <= first[0].Run {
		t.Fatalf("run IDs %d then %d, want non-zero and increasing", first[0].Run, second[0].Run)
	}
}

func TestProgressListenerDoesNotChangeResults(t *testing.T) {
	corpus := testCorpus(t, 25, 1)
	plain, err := RunCtx(context.Background(), corpus, testTools(t), Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithProgress(context.Background(), func(ProgressEvent) {})
	listened, err := RunCtx(ctx, corpus, testTools(t), Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Results, listened.Results) {
		t.Fatal("campaign results differ with a progress listener installed")
	}
}

func TestProgressFromContextAbsent(t *testing.T) {
	if fn := ProgressFromContext(context.Background()); fn != nil {
		t.Fatal("listener reported on a bare context")
	}
	if fn := ProgressFromContext(nil); fn != nil {
		t.Fatal("listener reported on a nil context")
	}
	if ctx := WithProgress(context.Background(), nil); ProgressFromContext(ctx) != nil {
		t.Fatal("nil listener was installed")
	}
}
