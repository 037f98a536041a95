package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/harness"
)

// waitParked blocks until at least n goroutines are parked in
// Coordinator.Pull, read from the goroutine dump rather than guessed
// from a sleep.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[select") && strings.Contains(g, "dist.(*Coordinator).Pull(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pulls parked, want %d", parked, n)
		}
		runtime.Gosched()
	}
}

type pullResult struct {
	asn ShardAssignment
	ok  bool
	err error
}

// parkPull starts a pull for the worker and returns once it is parked.
// Its ctx lasts the whole test, so only a wake can release it.
func parkPull(t *testing.T, coord *Coordinator, worker string) <-chan pullResult {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	res := make(chan pullResult, 1)
	go func() {
		asn, ok, err := coord.Pull(ctx, worker)
		res <- pullResult{asn, ok, err}
	}()
	waitParked(t, 1)
	return res
}

// released returns the parked pull's result, failing the test if no
// wake releases it.
func released(t *testing.T, res <-chan pullResult) pullResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("parked pull was never released")
		return pullResult{}
	}
}

// TestPullWakes is the wake matrix of a parked pull: each event that
// can change its answer releases it at once.
func TestPullWakes(t *testing.T) {
	// A minute-long heartbeat keeps the watchdogs out of the way; the
	// expiry cases expire workers by hand.
	newCoord := func(t *testing.T) *Coordinator {
		coord := NewCoordinator(CoordinatorOptions{HeartbeatInterval: time.Minute})
		t.Cleanup(func() { coord.Close() })
		return coord
	}
	spec := CampaignSpec{Workload: testWorkload(13), Suite: "standard", Options: harness.Options{Seed: 13}, ShardCases: 100}
	register := func(t *testing.T, coord *Coordinator) string {
		id, err := coord.Register()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	t.Run("submit", func(t *testing.T) {
		coord := newCoord(t)
		res := parkPull(t, coord, register(t, coord))
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if r := released(t, res); r.err != nil || !r.ok || r.asn.Lease != 1 {
			t.Fatalf("pull after submit: ok=%v lease=%d err=%v", r.ok, r.asn.Lease, r.err)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		coord := newCoord(t)
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
		lost := register(t, coord)
		first, ok, err := coord.Pull(context.Background(), lost)
		if err != nil || !ok {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		res := parkPull(t, coord, register(t, coord))
		coord.expireWorker(lost)
		r := released(t, res)
		if r.err != nil || !r.ok || r.asn.Key != first.Key || r.asn.Lease != 2 {
			t.Fatalf("pull after requeue: ok=%v lease=%d err=%v", r.ok, r.asn.Lease, r.err)
		}
	})

	t.Run("failed-report", func(t *testing.T) {
		coord := newCoord(t)
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
		failing := register(t, coord)
		first, ok, err := coord.Pull(context.Background(), failing)
		if err != nil || !ok {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		res := parkPull(t, coord, register(t, coord))
		if err := coord.Report(failing, first.Campaign, first.Key, first.Lease, nil, "corpus unavailable"); err != nil {
			t.Fatal(err)
		}
		r := released(t, res)
		if r.err != nil || !r.ok || r.asn.Key != first.Key || r.asn.Lease != 2 {
			t.Fatalf("pull after failed report: ok=%v lease=%d err=%v", r.ok, r.asn.Lease, r.err)
		}
	})

	t.Run("own-expiry", func(t *testing.T) {
		coord := newCoord(t)
		id := register(t, coord)
		res := parkPull(t, coord, id)
		coord.expireWorker(id)
		if r := released(t, res); r.err != ErrUnknownWorker {
			t.Fatalf("pull after own expiry: got %v, want ErrUnknownWorker", r.err)
		}
	})

	t.Run("drain", func(t *testing.T) {
		coord := newCoord(t)
		id := register(t, coord)
		res := parkPull(t, coord, id)
		coord.BeginDrain()
		r := released(t, res)
		if r.err != ErrDraining || errStatus(r.err) != http.StatusServiceUnavailable {
			t.Fatalf("pull after drain: got %v (HTTP %d), want ErrDraining (503)", r.err, errStatus(r.err))
		}
		// In-flight campaigns still lease their pending shards.
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := coord.Pull(context.Background(), id); err != nil || !ok {
			t.Fatalf("pull of a pending shard while draining: ok=%v err=%v", ok, err)
		}
	})

	t.Run("close", func(t *testing.T) {
		coord := newCoord(t)
		res := parkPull(t, coord, register(t, coord))
		coord.Close()
		if r := released(t, res); r.err != ErrClosed {
			t.Fatalf("pull after close: got %v, want ErrClosed", r.err)
		}
	})
}

// TestPullWithEndedContextTakesNoLease: a pull whose caller has gone
// away leases nothing, so the shard goes to the next worker untouched.
func TestPullWithEndedContextTakesNoLease(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{HeartbeatInterval: time.Minute})
	defer coord.Close()
	spec := CampaignSpec{Workload: testWorkload(13), Suite: "standard", Options: harness.Options{Seed: 13}, ShardCases: 100}
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	pending := coord.Registry().Gauge("vd_dist_shards_pending", "")
	before := pending.Value()

	gone, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := coord.Pull(ctx, gone); ok || err != nil {
		t.Fatalf("pull with ended ctx: ok=%v err=%v, want no lease and no error", ok, err)
	}
	if got := pending.Value(); got != before {
		t.Fatalf("vd_dist_shards_pending moved from %d to %d", before, got)
	}

	next, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	asn, ok, err := coord.Pull(context.Background(), next)
	if err != nil || !ok || asn.Lease != 1 {
		t.Fatalf("next pull: ok=%v lease=%d err=%v, want the shard at lease 1", ok, asn.Lease, err)
	}
}

// TestIdleWorkerParksOnePull counts the pull requests an idle worker
// makes: one parked pull, not one per heartbeat. The long timeout keeps
// a heartbeat delayed under load from expiring the worker.
func TestIdleWorkerParksOnePull(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: time.Minute})
	defer coord.Close()
	var pulls atomic.Int64
	h := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/pull") {
			pulls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewWorker(WorkerOptions{Join: srv.URL}).Run(ctx) }()
	time.Sleep(500 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := pulls.Load(); n < 1 || n > 2 {
		t.Fatalf("idle worker made %d pull requests in 500ms, want 1 or 2", n)
	}
}
