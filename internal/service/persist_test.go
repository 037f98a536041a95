package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/journal"
)

// mustNew and mustNewService unwrap the construction error for tests
// that do not exercise store-open failures.
func mustNew(t testing.TB, opts Options) *Service {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func mustNewService(t testing.TB, opts Options, run runner) *Service {
	t.Helper()
	svc, err := newService(opts, run)
	if err != nil {
		t.Fatalf("newService: %v", err)
	}
	return svc
}

// crash abandons a service the way SIGKILL would, as far as the durable
// store can tell: the store is detached first so neither the canceled
// jobs nor the store close are recorded, then the service is torn down
// with an expired drain budget to free its workers.
func crash(svc *Service) {
	svc.detachStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Shutdown(ctx)
}

// TestRecoveryMidRunByteIdentity is the kill-and-restart acceptance
// test at the service level: a job interrupted mid-campaign is
// re-executed from its journaled config on restart and renders byte-
// identical to an uninterrupted run — determinism makes recovery exact,
// not approximate.
func TestRecoveryMidRunByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()

	g := newGate()
	first := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	job, err := first.Submit("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t) // the campaign is running when the "crash" hits
	crash(first)

	second := mustNew(t, Options{Workers: 1, DataDir: dir})
	defer second.Close()
	rec := second.Recovery()
	if rec.Requeued != 1 || rec.Restored != 0 {
		t.Fatalf("recovery = %+v, want exactly the interrupted job requeued", rec)
	}
	recovered, ok := second.Job(job.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", job.ID())
	}
	if recovered.Key() != job.Key() {
		t.Fatalf("journaled config round-trip changed the cache key: %s != %s", recovered.Key(), job.Key())
	}
	mustWait(t, recovered)
	res, err := recovered.Result()
	if err != nil {
		t.Fatal(err)
	}

	direct, err := vdbench.RunExperiment("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv"} {
		got, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("recovered %s render diverges from uninterrupted run", format)
		}
	}
}

// TestWarmRestartServesCachedResults proves a restart serves journaled
// results without re-executing anything: the successor uses a gated
// runner that would block forever if any campaign ran.
func TestWarmRestartServesCachedResults(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()

	first := mustNew(t, Options{Workers: 1, DataDir: dir})
	job, err := first.Submit("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	g := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	defer second.Close()
	rec := second.Recovery()
	if rec.Restored != 1 || rec.Rehydrated != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want the done job restored and rehydrated", rec)
	}
	if counterValue(second, "vd_journal_replayed_total") == 0 {
		t.Fatal("vd_journal_replayed_total did not count the replay")
	}

	// The original job is queryable with its result intact.
	old, ok := second.Job(job.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", job.ID())
	}
	oldRes, err := old.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := oldRes.Render("text"); got != want {
		t.Fatal("restored job's result diverges from the original")
	}

	// A fresh identical submission is a cache hit — no campaign runs.
	again, err := second.Submit("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, again)
	st, _ := second.Status(again.ID())
	if st.Status != StatusDone || !st.Cached {
		t.Fatalf("warm submission status = %+v, want cached done", st)
	}
	if counterValue(second, "vd_cache_hits_total") != 1 {
		t.Fatalf("vd_cache_hits_total = %d, want 1", counterValue(second, "vd_cache_hits_total"))
	}
	if g.count() != 0 {
		t.Fatalf("warm restart executed %d campaigns, want 0", g.count())
	}
}

// TestReplayToleratesRetiredConfigFields: journals written before an
// experiment-config field was retired carry it in every submitted
// record — the Interpreter and OracleExhaustive switches and the nested
// Prop.Workers, or the campaign execution policy (PerToolTimeout, Retry,
// Degraded). Replay decodes configs with plain json.Unmarshal, which
// ignores unknown fields, so such a job restores under its unchanged
// cache key and serves its stored result.
func TestReplayToleratesRetiredConfigFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		old  func(cfg string) string
	}{
		{"interpreter-oracle-prop-workers", func(cfg string) string {
			cfg = strings.Replace(cfg, `"Prop":{`, `"Prop":{"Workers":2,`, 1)
			return strings.TrimSuffix(cfg, "}") + `,"Interpreter":true,"OracleExhaustive":true}`
		}},
		{"execution-policy", func(cfg string) string {
			return strings.TrimSuffix(cfg, "}") +
				`,"PerToolTimeout":30000000000,"Retry":{"MaxRetries":2,"Backoff":1000000},"Degraded":1}`
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { replayRetiredFields(t, tc.old) })
	}
}

// replayRetiredFields finishes one job, rewrites its journal with old
// applied to every submitted config, and requires a restart to restore
// the job under its original key and serve its stored result without
// running a campaign.
func replayRetiredFields(t *testing.T, old func(cfg string) string) {
	dir := t.TempDir()
	cfg := quickCfg()

	first := mustNew(t, Options{Workers: 1, DataDir: dir})
	job, err := first.Submit("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Rewrite the journal in the older format: the same records, with
	// the retired fields added to each submitted config.
	path := filepath.Join(dir, "journal.jsonl")
	j, records, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	j, _, _, err = journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.Type == recSubmitted {
			if !strings.Contains(string(rec.Config), `"Prop":{`) {
				t.Fatalf("submitted config %s has no Prop object", rec.Config)
			}
			rec.Config = json.RawMessage(old(string(rec.Config)))
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	g := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	defer second.Close()
	if rec := second.Recovery(); rec.Restored != 1 || rec.Rehydrated != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want the old-format job restored and rehydrated", rec)
	}
	restored, ok := second.Job(job.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", job.ID())
	}
	if restored.Key() != job.Key() || restored.Key() != vdbench.ExperimentCacheKey("e1", cfg) {
		t.Fatalf("restored key %s, want %s", restored.Key(), job.Key())
	}
	restoredRes, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restoredRes.Render("text"); got != want {
		t.Fatal("restored job's result diverges from the original")
	}
	if g.count() != 0 {
		t.Fatalf("replay executed %d campaigns, want 0", g.count())
	}
}

// TestReplayedOldKeyIsNoCacheHit: a job that a program with older
// published numbers finished keeps, after a restart, the cache key that
// program gave it. A new submission of the same configuration hashes
// under the current key version, so it runs afresh instead of serving the
// stored result of the older program.
func TestReplayedOldKeyIsNoCacheHit(t *testing.T) {
	// v1Key is ExperimentCacheKey("e1", quickCfg()) as it was when the key
	// hashed the version string "vdbench-experiment-v1".
	const v1Key = "b2c6a05205fd4494969b190b77ffd14b97f4188548df94498b928a0c381ef7fc"
	dir := t.TempDir()
	first := mustNew(t, Options{Workers: 1, DataDir: dir})
	job, err := first.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	first.Close()
	key := job.Key()
	if key == v1Key {
		t.Fatal("the cache key still hashes the v1 version string")
	}

	// Rekey the journal and the stored result as the older program wrote
	// them.
	path := filepath.Join(dir, "journal.jsonl")
	j, records, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	j, _, _, err = journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.Key == key {
			rec.Key = v1Key
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	blobs, err := journal.OpenStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	data, ok := blobs.Get(key)
	if !ok {
		t.Fatal("the finished job left no stored result")
	}
	if err := blobs.Put(v1Key, data); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(blobs.Dir(), key+".bin")); err != nil {
		t.Fatal(err)
	}

	g := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	defer second.Close()
	defer g.open()
	if rec := second.Recovery(); rec.Restored != 1 || rec.Rehydrated != 1 {
		t.Fatalf("recovery = %+v, want the old-key job restored and rehydrated", rec)
	}
	if restored, ok := second.Job(job.ID()); !ok || restored.Key() != v1Key {
		t.Fatalf("job %s not restored under its old key", job.ID())
	}
	fresh, err := second.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Key() != key {
		t.Fatalf("new submission keyed %s, want %s", fresh.Key(), key)
	}
	if st, _ := second.Status(fresh.ID()); st.Cached {
		t.Fatal("a result stored under the old key was served for the new key")
	}
	g.waitStarted(t) // the new submission runs its own campaign
}

// TestRecoveryTornFinalRecord: a torn trailing journal line (the crash
// landing mid-append) is dropped by the CRC guard and the job whose
// finished record it was re-executes.
func TestRecoveryTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	g := newGate()
	first := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	job, err := first.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	crash(first)

	// Simulate the crash tearing a final record mid-write.
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`v1 00000000 {"type":"finis`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g2 := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g2.run)
	defer second.Close()
	rec := second.Recovery()
	if rec.Torn != 1 {
		t.Fatalf("recovery = %+v, want exactly one torn record", rec)
	}
	if rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the interrupted job requeued", rec)
	}
	if counterValue(second, "vd_journal_torn_records_total") != 1 {
		t.Fatal("vd_journal_torn_records_total did not count the torn line")
	}
	g2.waitStarted(t) // the requeued job re-executes
	g2.open()
	recovered, _ := second.Job(job.ID())
	mustWait(t, recovered)
}

// TestRecoveryMissingBlob: a "finished done" journal record whose
// result file is gone (the vice-versa orphan case) re-enqueues the job;
// determinism makes the recomputation equivalent to the lost blob.
func TestRecoveryMissingBlob(t *testing.T) {
	dir := t.TempDir()
	first := mustNew(t, Options{Workers: 1, DataDir: dir})
	job, err := first.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	first.Close()
	if err := os.Remove(filepath.Join(dir, "results", job.Key()+".bin")); err != nil {
		t.Fatal(err)
	}

	g := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	defer second.Close()
	rec := second.Recovery()
	if rec.MissingBlobs != 1 || rec.Requeued != 1 || rec.Rehydrated != 0 {
		t.Fatalf("recovery = %+v, want the blob-less done job requeued", rec)
	}
	g.waitStarted(t)
	g.open()
	recovered, _ := second.Job(job.ID())
	mustWait(t, recovered)
	if _, err := recovered.Result(); err != nil {
		t.Fatalf("recomputed job failed: %v", err)
	}
}

// TestRecoveryOrphanBlobServesLazily: a result file no journal record
// explains is counted as an orphan but stays usable — the content
// address alone proves what it is, so a matching submission is answered
// from it without a campaign.
func TestRecoveryOrphanBlobServesLazily(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	key := vdbench.ExperimentCacheKey("e1", cfg)
	planted := vdbench.ExperimentResult{ID: "e1", Title: "planted orphan"}
	data, err := encodeResult(planted)
	if err != nil {
		t.Fatal(err)
	}
	store, err := journal.OpenStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}

	g := newGate()
	svc := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	defer svc.Close()
	if rec := svc.Recovery(); rec.OrphanBlobs != 1 {
		t.Fatalf("recovery = %+v, want one orphan blob", rec)
	}
	if counterValue(svc, "vd_journal_orphan_blobs_total") != 1 {
		t.Fatal("vd_journal_orphan_blobs_total did not count the orphan")
	}

	job, err := svc.Submit("e1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Title != "planted orphan" {
		t.Fatalf("result title = %q, want the planted blob", res.Title)
	}
	if g.count() != 0 {
		t.Fatalf("orphan hit still executed %d campaigns", g.count())
	}
	if counterValue(svc, "vd_journal_blob_hits_total") != 1 {
		t.Fatal("vd_journal_blob_hits_total did not count the lazy hit")
	}
}

// TestRecoveryCanceledWhileRunning: a job canceled mid-campaign is
// journaled canceled and replays as canceled — not re-executed.
func TestRecoveryCanceledWhileRunning(t *testing.T) {
	dir := t.TempDir()
	g := newGate()
	first := mustNewService(t, Options{Workers: 1, DataDir: dir}, g.run)
	job, err := first.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if !first.Cancel(job.ID()) {
		t.Fatal("Cancel refused a running job")
	}
	mustWait(t, job)
	first.Close()

	g2 := newGate()
	second := mustNewService(t, Options{Workers: 1, DataDir: dir}, g2.run)
	defer second.Close()
	rec := second.Recovery()
	if rec.Restored != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want the canceled job restored terminally", rec)
	}
	st, ok := second.Status(job.ID())
	if !ok || st.Status != StatusCanceled {
		t.Fatalf("status after replay = %+v, want canceled", st)
	}
	if g2.count() != 0 {
		t.Fatalf("canceled job re-executed %d times", g2.count())
	}
}

// TestResultGobRoundTrip pins the persistence codec on a real
// experiment result: every render format survives the gob round trip
// byte-identically (the JSON codec could not — rows pad, NaN nulls).
func TestResultGobRoundTrip(t *testing.T) {
	res, err := vdbench.RunExperiment("e4", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv", "markdown"} {
		want, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s render changed across the gob round trip", format)
		}
	}
}
