package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/telemetry"
	"github.com/dsn2015/vdbench/internal/workload"
)

// testWorkload is the small corpus the distributed tests run on: big
// enough to split into several shards, small enough to execute the full
// local≡distributed matrix under the race detector.
func testWorkload(seed uint64) workload.Config {
	return workload.Config{Services: 10, TargetPrevalence: 0.5, Seed: seed}
}

// localCampaign is the reference: the plain in-process harness run the
// distributed path must reproduce byte for byte.
func localCampaign(t *testing.T, wcfg workload.Config, opts harness.Options) *harness.Campaign {
	t.Helper()
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := harness.RunCtx(context.Background(), corpus, tools, opts)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// waitCampaign blocks until the campaign ends and merges its cell grid
// the way Client.RunCampaign does.
func waitCampaign(ctx context.Context, coord *Coordinator, id string, spec CampaignSpec) (*harness.Campaign, error) {
	st, err := coord.WaitStatus(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.State == "running" {
		return nil, ctx.Err()
	}
	cells, err := coord.Cells(id)
	if err != nil {
		return nil, err
	}
	corpus, err := corpusFor(spec.Workload)
	if err != nil {
		return nil, err
	}
	tools, err := BuildSuite(spec.Suite)
	if err != nil {
		return nil, err
	}
	return harness.MergeShards(corpus, tools, cells, spec.Options.Degraded)
}

// startCluster brings up a coordinator behind httptest and n workers
// pulling from it, and tears everything down with the test.
func startCluster(t *testing.T, copts CoordinatorOptions, n int) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord := NewCoordinator(copts)
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wk := NewWorker(WorkerOptions{Join: srv.URL})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		if err := coord.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return coord, srv
}

// TestDistributedMatchesLocalMatrix is the acceptance matrix: every
// (seed, campaign workers, worker processes) combination must reproduce
// the local campaign deep-equal, execution ledgers included.
func TestDistributedMatchesLocalMatrix(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		wcfg := testWorkload(seed)
		baselines := map[int]*harness.Campaign{}
		for _, campWorkers := range []int{1, 2, 4} {
			baselines[campWorkers] = localCampaign(t, wcfg, harness.Options{Seed: seed, Workers: campWorkers})
		}
		// Campaign workers must not perturb output either; lock that in
		// before comparing against the distributed runs.
		for _, campWorkers := range []int{2, 4} {
			if !reflect.DeepEqual(baselines[1], baselines[campWorkers]) {
				t.Fatalf("seed %d: local campaign differs between 1 and %d workers", seed, campWorkers)
			}
		}
		for _, campWorkers := range []int{1, 2, 4} {
			for _, procs := range []int{1, 2, 3} {
				name := fmt.Sprintf("seed=%d/workers=%d/procs=%d", seed, campWorkers, procs)
				t.Run(name, func(t *testing.T) {
					_, srv := startCluster(t, CoordinatorOptions{}, procs)
					client := NewClient(srv.URL)
					got, err := client.RunCampaign(context.Background(), CampaignSpec{
						Workload:   wcfg,
						Suite:      "standard",
						Options:    harness.Options{Seed: seed, Workers: campWorkers},
						ShardCases: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, baselines[campWorkers]) {
						t.Fatalf("distributed campaign differs from local run")
					}
				})
			}
		}
	}
}

// TestDistributedSurvivesWorkerLoss kills workers mid-campaign — one
// real worker cancelled while executing, plus a black-hole worker that
// leases a shard and never reports nor beats — and requires the output
// to stay byte-identical to the fault-free local run.
func TestDistributedSurvivesWorkerLoss(t *testing.T) {
	const seed = 7
	wcfg := testWorkload(seed)
	opts := harness.Options{Seed: seed, Workers: 2}
	want := localCampaign(t, wcfg, opts)

	coord := NewCoordinator(CoordinatorOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	spec := CampaignSpec{Workload: wcfg, Suite: "standard", Options: opts, ShardCases: 2}
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The black hole: registers, leases one shard, then goes silent. Its
	// shard MUST be reassigned for the campaign to complete.
	blackHole, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := coord.Pull(context.Background(), blackHole); err != nil || !ok {
		t.Fatalf("black-hole pull: ok=%v err=%v", ok, err)
	}

	// One real worker that is cancelled shortly after it starts pulling.
	doomedCtx, cancelDoomed := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = NewWorker(WorkerOptions{Join: srv.URL}).Run(doomedCtx)
	}()
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer wcancel()
		<-wctx.Done()
		cancelDoomed()
	}()

	// Two healthy workers carry the campaign home.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = NewWorker(WorkerOptions{Join: srv.URL}).Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	got, err := waitCampaign(wctx, coord, id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign after worker loss differs from fault-free local run")
	}
	if lost := coord.Registry().Counter("vd_dist_workers_lost_total", "").Value(); lost == 0 {
		t.Error("expected at least one worker to be expired")
	}
	if re := coord.Registry().Counter("vd_dist_shards_reassigned_total", "").Value(); re == 0 {
		t.Error("expected at least one shard reassignment")
	}
}

// TestStaleLeaseReportRejected drives the lease protocol by hand: a
// worker that lost its lease gets ErrStaleLease and the shard's second
// assignment wins.
func TestStaleLeaseReportRejected(t *testing.T) {
	const seed = 3
	wcfg := testWorkload(seed)
	coord := NewCoordinator(CoordinatorOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  25 * time.Millisecond,
	})
	defer coord.Close()

	spec := CampaignSpec{Workload: wcfg, Suite: "standard", Options: harness.Options{Seed: seed}, ShardCases: 100}
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	w1, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	asn1, ok, err := coord.Pull(context.Background(), w1)
	if err != nil || !ok {
		t.Fatalf("pull: ok=%v err=%v", ok, err)
	}

	// Execute the (single) shard up front so the reports below are
	// instant — w2 must not expire between its pull and its report.
	corpus, err := corpusFor(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tools, err := BuildSuite("standard")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := harness.RunShardCtx(context.Background(), corpus, tools, spec.Options, asn1.Lo, asn1.Hi)
	if err != nil {
		t.Fatal(err)
	}

	// w1's own pull parks until w1 expires; then w2 registers and takes
	// the requeued shard.
	deadline, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if _, _, err := coord.Pull(deadline, w1); err != ErrUnknownWorker {
		t.Fatalf("w1 pull: got %v, want ErrUnknownWorker after expiry", err)
	}
	w2, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	asn2, ok, err := coord.Pull(deadline, w2)
	if err != nil || !ok {
		t.Fatalf("shard never reassigned after worker expiry: ok=%v err=%v", ok, err)
	}
	if asn2.Key != asn1.Key {
		t.Fatalf("reassigned key %s != original %s", asn2.Key, asn1.Key)
	}
	if asn2.Lease <= asn1.Lease {
		t.Fatalf("reassignment did not advance the lease: %d -> %d", asn1.Lease, asn2.Lease)
	}

	// The expired worker's report must bounce.
	err = coord.Report(w1, asn1.Campaign, asn1.Key, asn1.Lease, cells, "")
	if err != ErrStaleLease {
		t.Fatalf("stale report: got %v, want ErrStaleLease", err)
	}
	// The current leaseholder's report completes the campaign.
	if err := coord.Report(w2, asn2.Campaign, asn2.Key, asn2.Lease, cells, ""); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if _, err := waitCampaign(wctx, coord, id, spec); err != nil {
		t.Fatal(err)
	}
}

// TestReassignmentExhaustionFailsCampaign starves a shard of workers:
// every leaseholder vanishes, and after maxReassign requeues the
// campaign fails instead of spinning forever.
func TestReassignmentExhaustionFailsCampaign(t *testing.T) {
	wcfg := testWorkload(5)
	coord := NewCoordinator(CoordinatorOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Millisecond,
	})
	defer coord.Close()
	id, err := coord.Submit(CampaignSpec{Workload: wcfg, Suite: "standard", Options: harness.Options{Seed: 5}, ShardCases: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Each round: a fresh worker's pull parks until the previous
	// leaseholder expires, leases the requeued shard and goes silent.
	// The last pull finds the campaign failed and parks until its own
	// worker expires.
	deadline, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	for {
		st, err := coord.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" {
			if !strings.Contains(st.Error, "giving up") {
				t.Fatalf("unexpected failure text: %s", st.Error)
			}
			return
		}
		if deadline.Err() != nil {
			t.Fatal("campaign never failed despite losing every leaseholder")
		}
		w, err := coord.Register()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := coord.Pull(deadline, w); err != nil && err != ErrUnknownWorker {
			t.Fatal(err)
		}
	}
}

// registerFaultySuite registers a fault-wrapped standard suite under a
// unique name and returns the name plus a local builder for baselines.
func registerFaultySuite(t *testing.T, cfg faulty.Config) (string, func() []detectors.Tool) {
	t.Helper()
	name := fmt.Sprintf("faulty-%s-rate%g-seed%d-fbs%d", cfg.Mode, cfg.Rate, cfg.Seed, cfg.FailuresBeforeSuccess)
	build := func() ([]detectors.Tool, error) {
		base, err := detectors.StandardSuite()
		if err != nil {
			return nil, err
		}
		out := make([]detectors.Tool, len(base))
		for i, tool := range base {
			w, err := faulty.Wrap(tool, cfg)
			if err != nil {
				return nil, err
			}
			out[i] = w
		}
		return out, nil
	}
	if err := RegisterSuite(name, build); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	mustBuild := func() []detectors.Tool {
		tools, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return tools
	}
	return name, mustBuild
}

// TestDistributedFaultySkipMatchesLocal runs a transiently failing suite
// under DegradedSkip with retries and compares the distributed campaign
// to the local one on the JSON wire encoding (fault records keep their
// unexported original error only in-process, so DeepEqual would be
// vacuously strict here).
func TestDistributedFaultySkipMatchesLocal(t *testing.T) {
	const seed = 11
	wcfg := testWorkload(seed)
	fcfg := faulty.Config{Mode: faulty.ModeTransient, Rate: 0.3, Seed: seed, FailuresBeforeSuccess: 5}
	suite, buildLocal := registerFaultySuite(t, fcfg)
	opts := harness.Options{
		Seed:     seed,
		Workers:  2,
		Retry:    harness.RetryPolicy{MaxRetries: 2},
		Degraded: harness.DegradedSkip,
	}

	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunCtx(context.Background(), corpus, buildLocal(), opts)
	if err != nil {
		t.Fatal(err)
	}

	_, srv := startCluster(t, CoordinatorOptions{}, 2)
	client := NewClient(srv.URL)
	got, err := client.RunCampaign(context.Background(), CampaignSpec{
		Workload: wcfg, Suite: suite, Options: opts, ShardCases: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatal("faulty distributed campaign differs from local run on the wire encoding")
	}
}

// TestDistributedAbortErrorMatchesLocal checks the DegradedAbort path:
// the distributed error text must be exactly the local one, even though
// the fault record crossed a process boundary.
func TestDistributedAbortErrorMatchesLocal(t *testing.T) {
	const seed = 9
	wcfg := testWorkload(seed)
	fcfg := faulty.Config{Mode: faulty.ModePanic, Rate: 0.2, Seed: seed}
	suite, buildLocal := registerFaultySuite(t, fcfg)
	opts := harness.Options{Seed: seed, Workers: 2, Degraded: harness.DegradedAbort}

	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, localErr := harness.RunCtx(context.Background(), corpus, buildLocal(), opts)
	if localErr == nil {
		t.Fatal("expected the local abort-policy run to fail")
	}

	_, srv := startCluster(t, CoordinatorOptions{}, 2)
	client := NewClient(srv.URL)
	_, distErr := client.RunCampaign(context.Background(), CampaignSpec{
		Workload: wcfg, Suite: suite, Options: opts, ShardCases: 3,
	})
	if distErr == nil {
		t.Fatal("expected the distributed abort-policy run to fail")
	}
	if localErr.Error() != distErr.Error() {
		t.Fatalf("abort error text diverged:\nlocal: %s\ndist:  %s", localErr, distErr)
	}
}

// TestShardKeyCanonicalization pins the content-address semantics:
// output-affecting fields move the key, operational knobs do not.
func TestShardKeyCanonicalization(t *testing.T) {
	base := CampaignSpec{
		Workload: testWorkload(1),
		Suite:    "standard",
		Options:  harness.Options{Seed: 4, Retry: harness.RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond}},
	}
	key := base.ShardKey(0, 8)

	if got := base.ShardKey(0, 8); got != key {
		t.Fatal("shard key not stable across calls")
	}
	if got := base.ShardKey(8, 16); got == key {
		t.Fatal("shard key insensitive to case range")
	}
	mut := base
	mut.Workload.Seed = 2
	if mut.ShardKey(0, 8) == key {
		t.Fatal("shard key insensitive to workload seed")
	}
	mut = base
	mut.Options.Seed = 5
	if mut.ShardKey(0, 8) == key {
		t.Fatal("shard key insensitive to execution seed")
	}
	mut = base
	mut.Suite = "other"
	if mut.ShardKey(0, 8) == key {
		t.Fatal("shard key insensitive to suite")
	}
	mut = base
	mut.Options.Degraded = harness.DegradedSkip
	if mut.ShardKey(0, 8) == key {
		t.Fatal("shard key insensitive to degraded policy")
	}

	// Operational knobs must NOT move the key: the output is invariant
	// under them, and shard identity should be too.
	mut = base
	mut.Options.Workers = 7
	mut.Options.PerToolTimeout = time.Minute
	mut.Options.Retry.Backoff = time.Second
	if mut.ShardKey(0, 8) != key {
		t.Fatal("shard key sensitive to an operational knob")
	}
}

// TestSubmitRejectsBadSpecs covers validation at the boundary.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	cases := []CampaignSpec{
		{Workload: workload.Config{Services: 0, TargetPrevalence: 0.5}, Suite: "standard"},
		{Workload: testWorkload(1), Suite: "no-such-suite"},
		{Workload: testWorkload(1), Suite: "standard", ShardCases: -1},
		{Workload: testWorkload(1), Suite: "standard", Options: harness.Options{PerToolTimeout: -time.Second}},
	}
	for _, k := range []svclang.SinkKind{0, 99} {
		w := testWorkload(1)
		w.Kinds = []svclang.SinkKind{k}
		cases = append(cases, CampaignSpec{Workload: w, Suite: "standard"})
	}
	for i, spec := range cases {
		if _, err := coord.Submit(spec); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}

	// Over the wire an unknown sink kind is a 400 at Submit, never an
	// accepted campaign whose shards no worker can generate.
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	body := `{"Workload":{"Services":4,"TargetPrevalence":0.5,"Kinds":[99],"Seed":1},"Suite":"standard"}`
	resp, err := http.Post(srv.URL+"/dist/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with kind 99: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestCoordinatorReadiness covers the drain-aware readiness endpoint.
func TestCoordinatorReadiness(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz/live"); got != http.StatusOK {
		t.Fatalf("live: %d", got)
	}
	if got := get("/healthz/ready"); got != http.StatusOK {
		t.Fatalf("ready before drain: %d", got)
	}
	coord.BeginDrain()
	if got := get("/healthz/live"); got != http.StatusOK {
		t.Fatalf("live while draining: %d", got)
	}
	if got := get("/healthz/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("ready while draining: %d", got)
	}
}

// TestSuiteRegistry covers the duplicate and unknown paths.
func TestSuiteRegistry(t *testing.T) {
	if err := RegisterSuite("standard", func() ([]detectors.Tool, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterSuite("", func() ([]detectors.Tool, error) { return nil, nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := BuildSuite("definitely-not-registered"); err == nil {
		t.Fatal("unknown suite built")
	}
}

// TestCorpusCacheReusesCorpora pins the cache contract: same config,
// same instance; the cached Corpus echoes its Config exactly.
func TestCorpusCacheReusesCorpora(t *testing.T) {
	cfg := testWorkload(21)
	a, err := corpusFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpusFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not reuse the corpus instance")
	}
	if !reflect.DeepEqual(a.Config, cfg) {
		t.Fatal("cached corpus does not echo its config")
	}
	kcfg := cfg
	kcfg.Kinds = []svclang.SinkKind{svclang.SinkSQL}
	c, err := corpusFor(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("cache conflated configs that differ in Kinds")
	}
}

// TestCorpusCacheSingleflight: concurrent shards that miss on one config
// share one generation — every caller gets the same instance and the
// cache records exactly one miss.
func TestCorpusCacheSingleflight(t *testing.T) {
	saved := corpusCache
	corpusCache = memo.New[string, *workload.Corpus](corpusCacheSize, nil)
	defer func() { corpusCache = saved }()
	cfg := testWorkload(4242)
	const n = 8
	got := make([]*workload.Corpus, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := corpusFor(cfg)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got corpus %p, want the shared %p", i, c, got[0])
		}
	}
	if hits, misses, _ := corpusCache.Stats(); misses != 1 || hits != n-1 {
		t.Fatalf("corpus cache recorded %d misses / %d hits for one config, want 1 / %d", misses, hits, n-1)
	}
}

// TestCorpusKeyCoversEveryConfigField walks workload.Config by
// reflection, perturbs each leaf in isolation, and demands that the
// corpus key changes. A field the key missed would let two configs share
// one cached corpus; adding a Config field without folding it into
// corpusKey fails here.
func TestCorpusKeyCoversEveryConfigField(t *testing.T) {
	cfg := testWorkload(1)
	cfg.Kinds = []svclang.SinkKind{svclang.SinkSQL}
	cfg.Mix = workload.DefaultMix()
	baseKey := corpusKey(cfg)

	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			fv := v.Field(i)
			orig := reflect.ValueOf(fv.Interface())
			switch fv.Kind() {
			case reflect.Struct:
				walk(fv, name+".")
				continue
			case reflect.Int:
				fv.SetInt(fv.Int() + 1)
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + 1)
			case reflect.Float64:
				fv.SetFloat(fv.Float()*2 + 0.25)
			case reflect.Slice:
				fv.Set(reflect.Append(fv, fv.Index(0)))
			default:
				t.Fatalf("workload.Config field %s has unhandled kind %s; extend this test and corpusKey", name, fv.Kind())
			}
			if corpusKey(cfg) == baseKey {
				t.Errorf("perturbing %s did NOT change the corpus key; corpusKey is missing this field", name)
			}
			fv.Set(orig)
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")
	if got := corpusKey(cfg); got != baseKey {
		t.Fatalf("walk did not restore the config (key %s vs %s)", got, baseKey)
	}
}

// TestDistributedOracleCacheCounters runs a campaign on a two-worker
// cluster after a local baseline warmed the process-wide oracle cache,
// and asserts two things: the merged campaign deep-equals the local run,
// and the cluster's vd_oracle_* counters show the corpus regeneration
// being served entirely from the content-addressed cache — hits advance
// somewhere in the cluster, and not a single fresh probe executes.
func TestDistributedOracleCacheCounters(t *testing.T) {
	const seed = 9001 // fresh seed: no other test has this corpus cached
	wcfg := workload.Config{Services: 8, TargetPrevalence: 0.5, Seed: seed}
	opts := harness.Options{Seed: seed, Workers: 2}

	// The local baseline derives every ground truth the hard way and
	// leaves the derivations in the process-wide oracle cache.
	want := localCampaign(t, wcfg, opts)

	// Drop the process-local corpus cache: the distributed run must now
	// regenerate the corpus, and that regeneration is what consults the
	// oracle cache the baseline just filled. The swap happens before any
	// cluster goroutine exists, so none of them can observe the old cache.
	corpusCache = memo.New[string, *workload.Corpus](corpusCacheSize, nil)

	// The cluster is constructed after the baseline, so its observers
	// baseline past the local run and attribute only distributed work.
	coord := NewCoordinator(CoordinatorOptions{})
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	workerRegs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	var wg sync.WaitGroup
	for _, reg := range workerRegs {
		wk := NewWorker(WorkerOptions{Join: srv.URL, Registry: reg})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
		srv.Close()
		if err := coord.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	client := NewClient(srv.URL)
	got, err := client.RunCampaign(ctx, CampaignSpec{
		Workload:   wcfg,
		Suite:      "standard",
		Options:    opts,
		ShardCases: 3, // several shards, so both workers get work
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed campaign differs from local run")
	}

	// Every party exposes the oracle counters; the regeneration was
	// attributed to whichever process-side observer saw it first.
	regs := append([]*telemetry.Registry{coord.Registry()}, workerRegs...)
	var hits, probes uint64
	for _, reg := range regs {
		snap := reg.Snapshot()
		for _, name := range []string{"vd_oracle_probes_total", "vd_oracle_pruned_total",
			"vd_oracle_early_exits_total", "vd_oracle_cache_hits_total", "vd_oracle_cache_misses_total",
			"vd_compile_cache_hits_total", "vd_compile_cache_misses_total",
			"vd_exec_recovered_panics_total", "vd_exec_timeouts_total", "vd_exec_errors_total", "vd_exec_retries_total"} {
			if !strings.Contains(snap, name) {
				t.Fatalf("registry missing %s:\n%s", name, snap)
			}
		}
		hits += reg.Counter("vd_oracle_cache_hits_total", "").Value()
		probes += reg.Counter("vd_oracle_probes_total", "").Value()
	}
	if hits == 0 {
		t.Fatal("corpus regeneration did not hit the oracle cache anywhere in the cluster")
	}
	if probes != 0 {
		t.Fatalf("distributed run executed %d fresh probes; every derivation should have been cached", probes)
	}
}

// TestCoordinatorGeneratesNoCorpus drives one campaign through the
// coordinator by hand — Submit, Pull, Report, Cells — with the shard
// reports executed on a corpus from workload.Generate, and requires the
// process-local corpus cache to record no miss: the coordinator derives
// shard ranges from the spec alone and never generates a corpus.
func TestCoordinatorGeneratesNoCorpus(t *testing.T) {
	saved := corpusCache
	corpusCache = memo.New[string, *workload.Corpus](corpusCacheSize, nil)
	defer func() { corpusCache = saved }()

	const seed = 13
	wcfg := testWorkload(seed)
	spec := CampaignSpec{Workload: wcfg, Suite: "standard", Options: harness.Options{Seed: seed}, ShardCases: 4}
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := coord.Register()
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := coord.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			break
		}
		asn, ok, err := coord.Pull(context.Background(), w)
		if err != nil || !ok {
			t.Fatalf("pull: ok=%v err=%v", ok, err)
		}
		cells, err := harness.RunShardCtx(context.Background(), corpus, tools, spec.Options, asn.Lo, asn.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Report(w, asn.Campaign, asn.Key, asn.Lease, cells, ""); err != nil {
			t.Fatal(err)
		}
	}
	cells, err := coord.Cells(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(tools) || len(cells[0]) != len(corpus.Cases) {
		t.Fatalf("cell grid is %dx%d, want %dx%d", len(cells), len(cells[0]), len(tools), len(corpus.Cases))
	}
	if hits, misses, _ := corpusCache.Stats(); misses != 0 {
		t.Fatalf("corpus cache recorded %d misses / %d hits; the coordinator must generate no corpus", misses, hits)
	}
}

// TestCoordinatorAbortStatusMatchesLocal reads an abort-policy campaign's
// status over raw HTTP: the coordinator itself, not only the client,
// must report it failed with exactly the local harness.RunCtx abort text.
func TestCoordinatorAbortStatusMatchesLocal(t *testing.T) {
	const seed = 9
	wcfg := testWorkload(seed)
	suite, buildLocal := registerFaultySuite(t, faulty.Config{Mode: faulty.ModePanic, Rate: 0.2, Seed: seed})
	opts := harness.Options{Seed: seed, Workers: 2, Degraded: harness.DegradedAbort}

	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, localErr := harness.RunCtx(context.Background(), corpus, buildLocal(), opts)
	if localErr == nil {
		t.Fatal("expected the local abort-policy run to fail")
	}

	_, srv := startCluster(t, CoordinatorOptions{}, 2)
	body, err := json.Marshal(CampaignSpec{Workload: wcfg, Suite: suite, Options: opts, ShardCases: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/dist/v1/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, decode error %v", resp.StatusCode, err)
	}

	var st CampaignStatus
	for st.State == "" || st.State == "running" {
		resp, err := http.Get(srv.URL + "/dist/v1/campaigns/" + sub.ID + "?wait=30s")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d, decode error %v", resp.StatusCode, err)
		}
	}
	if st.State != "failed" {
		t.Fatalf("abort-policy campaign ended %q, want failed", st.State)
	}
	if st.Error != localErr.Error() {
		t.Fatalf("coordinator status error diverged from the local abort:\nlocal: %s\ncoord: %s", localErr, st.Error)
	}
}
