package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/harness"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	Data  string
}

// readFrame parses the next SSE frame off the stream; ok is false at
// EOF (or a half-written trailing frame cut off by disconnect).
func readFrame(r *bufio.Reader) (sseFrame, bool) {
	var f sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return sseFrame{}, false
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "" && f.Event != "":
			return f, true
		case strings.HasPrefix(line, "event: "):
			f.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.Data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// progressRunner returns a runner that emits n synthetic progress
// events through the harness seam (each one cell of tool "alpha" with
// confusion TP=1 FP=1), gated on release so tests can attach a
// subscriber before any event fires.
func progressRunner(n int, release <-chan struct{}) runner {
	return func(ctx context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		fn := harness.ProgressFromContext(ctx)
		if fn == nil {
			return vdbench.ExperimentResult{}, errors.New("no progress seam on the run context")
		}
		select {
		case <-release:
		case <-ctx.Done():
			return vdbench.ExperimentResult{}, ctx.Err()
		}
		for i := 0; i < n; i++ {
			fn(vdbench.CampaignProgressEvent{Total: n, Tool: "alpha", Case: i,
				Confusion: vdbench.Confusion{TP: 1, FP: 1}})
		}
		return vdbench.ExperimentResult{ID: id, Title: "progress stub"}, nil
	}
}

// TestEventSubDropAndCoalesce pins the mailbox semantics: unread
// snapshots are replaced, counted, and the freshest one wins.
func TestEventSubDropAndCoalesce(t *testing.T) {
	hub := newEventHub()
	sub := hub.subscribe("j-000001")
	if _, _, ok := sub.take(); ok {
		t.Fatal("fresh mailbox reported a pending snapshot")
	}
	for i := 1; i <= 5; i++ {
		hub.publish("j-000001", ProgressUpdate{Job: "j-000001", Done: i, Total: 5})
	}
	update, coalesced, ok := sub.take()
	if !ok || update.Done != 5 {
		t.Fatalf("take = %+v ok=%v, want the freshest snapshot", update, ok)
	}
	if coalesced != 4 {
		t.Fatalf("coalesced = %d, want 4 (five publishes, one take)", coalesced)
	}
	// The drop counter resets with the take.
	hub.publish("j-000001", ProgressUpdate{Job: "j-000001", Done: 6, Total: 6})
	if _, coalesced, _ := sub.take(); coalesced != 0 {
		t.Fatalf("coalesced after drain = %d, want 0", coalesced)
	}
	// Unsubscribed mailboxes stop receiving.
	hub.unsubscribe("j-000001", sub)
	hub.publish("j-000001", ProgressUpdate{Done: 7})
	if _, _, ok := sub.take(); ok {
		t.Fatal("unsubscribed mailbox still received a snapshot")
	}
}

// TestSSEStreamsMonotonicProgress drives the events endpoint end to
// end: opening status frame, strictly increasing progress frames with
// coherent incremental metric estimates, closing terminal status frame.
func TestSSEStreamsMonotonicProgress(t *testing.T) {
	const total = 6
	release := make(chan struct{})
	_, ts := newTestAPI(t, Options{Workers: 1}, progressRunner(total, release))

	st := submitJob(t, ts.URL, `{"experiment":"e1","quick":true}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	br := bufio.NewReader(resp.Body)

	first, ok := readFrame(br)
	if !ok || first.Event != "status" {
		t.Fatalf("first frame = %+v, want a status frame", first)
	}
	var opening JobStatus
	if err := json.Unmarshal([]byte(first.Data), &opening); err != nil {
		t.Fatal(err)
	}
	if opening.Status.terminal() {
		t.Fatalf("job already terminal before release: %+v", opening)
	}
	if opening.Links["events"] != "/v1/jobs/"+st.ID+"/events" {
		t.Fatalf("status frame links = %v", opening.Links)
	}
	close(release) // subscriber attached; let the campaign emit

	var frames []sseFrame
	for {
		f, ok := readFrame(br)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 || frames[len(frames)-1].Event != "status" {
		t.Fatalf("stream did not end with a terminal status frame: %+v", frames)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(frames[len(frames)-1].Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("terminal frame status = %s, want done", final.Status)
	}

	progress := frames[:len(frames)-1]
	if len(progress) == 0 {
		t.Fatal("no progress frames before the terminal status")
	}
	last := 0
	for _, f := range progress {
		if f.Event != "progress" {
			t.Fatalf("unexpected frame %+v mid-stream", f)
		}
		var u progressFrame
		if err := json.Unmarshal([]byte(f.Data), &u); err != nil {
			t.Fatal(err)
		}
		if u.Done <= last || u.Done > total || u.Total != total {
			t.Fatalf("non-monotone progress: done %d after %d (total %d)", u.Done, last, u.Total)
		}
		last = u.Done
		// Incremental estimates: after k cells of TP=1 FP=1, precision is
		// exactly 0.5 and recall exactly 1.
		if len(u.Tools) != 1 || u.Tools[0].Tool != "alpha" {
			t.Fatalf("progress tools = %+v", u.Tools)
		}
		tp := u.Tools[0]
		if tp.Confusion.TP != u.Done || tp.Confusion.FP != u.Done {
			t.Fatalf("confusion %+v does not track done=%d", tp.Confusion, u.Done)
		}
		if tp.Precision != 0.5 || tp.Recall != 1 {
			t.Fatalf("estimates precision=%v recall=%v, want 0.5 and 1", tp.Precision, tp.Recall)
		}
	}
	if last != total {
		t.Fatalf("final progress frame done = %d, want %d (terminal drain must flush the last snapshot)", last, total)
	}
}

// TestSSEProgressAcrossCampaigns runs real quick jobs that execute more
// than one campaign under the job's context: e14 runs the shared campaign
// and then its own, e18 the shared campaign and then its fault campaigns.
// Every progress frame must have done <= total, the last one done ==
// total, and its rows must come from one run: E18's last fault campaign
// covers each tool's cases once.
func TestSSEProgressAcrossCampaigns(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, id string, cfg vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return vdbench.ExperimentResult{}, ctx.Err()
		}
		return vdbench.RunExperimentCtx(ctx, id, cfg)
	}
	_, ts := newTestAPI(t, Options{Workers: 1}, run)

	ids := []string{"e14", "e18"}
	streams := make([]*bufio.Reader, len(ids))
	for i, id := range ids {
		st := submitJob(t, ts.URL, fmt.Sprintf(`{"experiment":%q,"quick":true}`, id))
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams[i] = bufio.NewReader(resp.Body)
		if f, ok := readFrame(streams[i]); !ok || f.Event != "status" {
			t.Fatalf("%s: first frame = %+v, want a status frame", id, f)
		}
	}
	close(release) // both subscribers attached; let the jobs run

	cases := vdbench.QuickExperimentConfig().Services
	for i, id := range ids {
		var last progressFrame
		frames := 0
		for {
			f, ok := readFrame(streams[i])
			if !ok {
				t.Fatalf("%s: stream ended without a terminal status frame", id)
			}
			if f.Event == "status" {
				break
			}
			var u progressFrame
			if err := json.Unmarshal([]byte(f.Data), &u); err != nil {
				t.Fatal(err)
			}
			if u.Done > u.Total || u.Done <= last.Done {
				t.Fatalf("%s: frame done %d of total %d after done %d", id, u.Done, u.Total, last.Done)
			}
			last = u
			frames++
		}
		if frames == 0 || last.Done != last.Total {
			t.Fatalf("%s: final progress frame done %d of total %d over %d frames", id, last.Done, last.Total, frames)
		}
		for _, tp := range last.Tools {
			if c := tp.Confusion; c.TP+c.FP+c.FN+c.TN > cases*4 {
				t.Fatalf("%s: tool %s row %+v adds up cells from more than one run", id, tp.Tool, c)
			}
		}
	}
}

// TestSSESlowSubscriberDoesNotStallCampaign connects a subscriber that
// never reads: the campaign must still emit thousands of events and
// finish promptly, with the backpressure showing up as coalesced drops
// rather than as worker stalls.
func TestSSESlowSubscriberDoesNotStallCampaign(t *testing.T) {
	const total = 5000
	release := make(chan struct{})
	svc, ts := newTestAPI(t, Options{Workers: 1}, progressRunner(total, release))

	st := submitJob(t, ts.URL, `{"experiment":"e1","quick":true}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read from it while the campaign runs
	close(release)

	job, _ := svc.Job(st.ID)
	mustWait(t, job) // the campaign finishes while the subscriber is stuck
	if _, err := job.Result(); err != nil {
		t.Fatal(err)
	}
	if counterValue(svc, "vd_sse_dropped_total") == 0 {
		t.Fatal("vd_sse_dropped_total = 0: a stuck subscriber over 5000 events must coalesce")
	}
	if counterValue(svc, "vd_sse_subscribers_total") != 1 {
		t.Fatalf("vd_sse_subscribers_total = %d, want 1", counterValue(svc, "vd_sse_subscribers_total"))
	}
}

// TestSSEDisconnectCleansUp: a client that goes away mid-stream leaves
// no subscription behind (and no stuck handler — the deferred ts.Close
// would hang the test if one leaked).
func TestSSEDisconnectCleansUp(t *testing.T) {
	g := newGate()
	svc, ts := newTestAPI(t, Options{Workers: 1}, g.run)
	defer g.open()

	st := submitJob(t, ts.URL, `{"experiment":"e1","quick":true}`)
	g.waitStarted(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if f, ok := readFrame(br); !ok || f.Event != "status" {
		t.Fatalf("first frame = %+v", f)
	}
	subscribed := func() int {
		svc.events.mu.Lock()
		defer svc.events.mu.Unlock()
		return len(svc.events.subs[st.ID])
	}
	if subscribed() != 1 {
		t.Fatalf("subscriptions = %d, want 1", subscribed())
	}

	cancel() // client disconnects mid-stream
	resp.Body.Close()
	deadline := time.Now().Add(waitDeadline)
	for subscribed() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not cleaned up after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSSETerminalJobClosesImmediately: subscribing to a finished job
// yields exactly one terminal status frame and the stream ends.
func TestSSETerminalJobClosesImmediately(t *testing.T) {
	instant := func(_ context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		return vdbench.ExperimentResult{ID: id}, nil
	}
	svc, ts := newTestAPI(t, Options{Workers: 1}, instant)
	st := submitJob(t, ts.URL, `{"experiment":"e1","quick":true}`)
	job, _ := svc.Job(st.ID)
	mustWait(t, job)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // the server must close the stream
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(strings.NewReader(string(body)))
	f, ok := readFrame(br)
	if !ok || f.Event != "status" {
		t.Fatalf("frame = %+v, want one status frame", f)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(f.Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("status = %s, want done", final.Status)
	}
	if _, ok := readFrame(br); ok {
		t.Fatal("terminal subscription produced more than one frame")
	}
}

// TestAPIListJobsPagination drives GET /v1/jobs through the state
// filter and the cursor: pages are disjoint, ordinal-ordered, carry
// links, and the filtered views partition the jobs by lifecycle state.
func TestAPIListJobsPagination(t *testing.T) {
	g := newGate()
	svc, ts := newTestAPI(t, Options{Workers: 1}, g.run)

	var ids []string
	for seed := 1; seed <= 5; seed++ {
		body := fmt.Sprintf(`{"experiment":"e1","quick":true,"seed":%d}`, seed)
		ids = append(ids, submitJob(t, ts.URL, body).ID)
	}
	g.waitStarted(t) // ids[0] running, the rest queued

	listPage := func(query string) jobPage {
		t.Helper()
		code, _, body := httpDo(t, http.MethodGet, ts.URL+"/v1/jobs"+query, "")
		if code != http.StatusOK {
			t.Fatalf("list %q = %d: %s", query, code, body)
		}
		var page jobPage
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	if got := listPage("?state=queued").Jobs; len(got) != 4 {
		t.Fatalf("queued jobs = %d, want 4", len(got))
	}
	if got := listPage("?state=running").Jobs; len(got) != 1 || got[0].ID != ids[0] {
		t.Fatalf("running jobs = %+v, want exactly %s", got, ids[0])
	}

	// Cancel one queued job, then drain the rest.
	if code, _, body := httpDo(t, http.MethodDelete, ts.URL+"/v1/jobs/"+ids[2], ""); code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", code, body)
	}
	g.open()
	for _, id := range ids {
		job, _ := svc.Job(id)
		mustWait(t, job)
	}

	if got := listPage("?state=canceled").Jobs; len(got) != 1 || got[0].ID != ids[2] {
		t.Fatalf("canceled jobs = %+v, want exactly %s", got, ids[2])
	}
	if got := listPage("?state=done").Jobs; len(got) != 4 {
		t.Fatalf("done jobs = %d, want 4", len(got))
	}

	// Cursor pagination: pages of 2 are disjoint, ordered, and chain to
	// the full set.
	var seen []string
	query := "?limit=2"
	lastOrd := uint64(0)
	for {
		page := listPage(query)
		if len(page.Jobs) > 2 {
			t.Fatalf("page overflows limit: %d jobs", len(page.Jobs))
		}
		for _, st := range page.Jobs {
			if st.Ord <= lastOrd {
				t.Fatalf("ordinals not ascending: %d after %d", st.Ord, lastOrd)
			}
			lastOrd = st.Ord
			if st.Links["self"] != "/v1/jobs/"+st.ID {
				t.Fatalf("job %s links = %v", st.ID, st.Links)
			}
			seen = append(seen, st.ID)
		}
		if page.Next == 0 {
			break
		}
		query = "?limit=2&cursor=" + strconv.FormatUint(page.Next, 10)
	}
	if len(seen) != len(ids) {
		t.Fatalf("pagination saw %d jobs, want %d (%v)", len(seen), len(ids), seen)
	}
}

// TestAPISurfaceGolden pins the whole v1 surface: the route table and
// the stable error-code set. A change here is an API change and must be
// deliberate.
func TestAPISurfaceGolden(t *testing.T) {
	instant := func(_ context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		return vdbench.ExperimentResult{ID: id}, nil
	}
	svc := mustNewService(t, Options{Workers: 1}, instant)
	defer svc.Close()

	wantRoutes := []string{
		"POST /v1/jobs",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/result",
		"GET /v1/jobs/{id}/events",
		"DELETE /v1/jobs/{id}",
		"GET /v1/experiments",
		"GET /healthz/live",
		"GET /healthz/ready",
		"GET /healthz",
		"GET /metrics",
	}
	routes := svc.routes()
	if len(routes) != len(wantRoutes) {
		t.Fatalf("API surface has %d routes, want %d", len(routes), len(wantRoutes))
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handle)
	}
	for i, rt := range routes {
		got := rt.Method + " " + rt.Pattern
		if got != wantRoutes[i] {
			t.Errorf("route %d = %q, want %q", i, got, wantRoutes[i])
			continue
		}
		// Walk the mux: each golden route must resolve to its own pattern.
		path := strings.NewReplacer("{id}", "j-000001").Replace(rt.Pattern)
		req := httptest.NewRequest(rt.Method, path, nil)
		if _, pattern := mux.Handler(req); pattern != got {
			t.Errorf("mux resolves %q to %q, want %q", path, pattern, got)
		}
	}

	wantCodes := []string{
		"malformed_request", "bad_request", "unknown_experiment", "unknown_job",
		"unknown_format", "queue_full", "draining", "not_done", "canceled",
		"not_cancelable", "job_failed", "render_failed",
	}
	gotCodes := []string{
		codeMalformedRequest, codeBadRequest, codeUnknownExperiment, codeUnknownJob,
		codeUnknownFormat, codeQueueFull, codeDraining, codeNotDone, codeCanceled,
		codeNotCancelable, codeJobFailed, codeRenderFailed,
	}
	for i, want := range wantCodes {
		if gotCodes[i] != want {
			t.Errorf("error code %d = %q, want %q", i, gotCodes[i], want)
		}
	}
}

// TestSubmitRequestPointerOverrides pins the decode/resolve matrix: an
// omitted field keeps the base value, an explicit zero pins zero, and
// pre-pointer request bodies keep working unchanged.
func TestSubmitRequestPointerOverrides(t *testing.T) {
	base := vdbench.ExperimentConfig{Seed: 42, Services: 30, Prevalence: 0.25, Workers: 3}
	cases := []struct {
		name string
		body string
		want func(vdbench.ExperimentConfig) vdbench.ExperimentConfig
	}{
		{"omitted fields keep base", `{"experiment":"e1"}`,
			func(c vdbench.ExperimentConfig) vdbench.ExperimentConfig { return c }},
		{"explicit zero seed", `{"experiment":"e1","seed":0}`,
			func(c vdbench.ExperimentConfig) vdbench.ExperimentConfig { c.Seed = 0; return c }},
		{"explicit zero prevalence", `{"experiment":"e1","prevalence":0}`,
			func(c vdbench.ExperimentConfig) vdbench.ExperimentConfig { c.Prevalence = 0; return c }},
		{"legacy full body", `{"experiment":"e1","seed":7,"services":10,"prevalence":0.5,"workers":2}`,
			func(c vdbench.ExperimentConfig) vdbench.ExperimentConfig {
				c.Seed, c.Services, c.Prevalence, c.Workers = 7, 10, 0.5, 2
				return c
			}},
		{"partial override", `{"experiment":"e1","services":12}`,
			func(c vdbench.ExperimentConfig) vdbench.ExperimentConfig { c.Services = 12; return c }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var req SubmitRequest
			if err := json.Unmarshal([]byte(c.body), &req); err != nil {
				t.Fatal(err)
			}
			if got, want := req.config(base), c.want(base); got != want {
				t.Fatalf("resolved config = %+v, want %+v", got, want)
			}
		})
	}

	// Quick swaps the whole base before the overrides land.
	var req SubmitRequest
	if err := json.Unmarshal([]byte(`{"experiment":"e1","quick":true,"seed":0}`), &req); err != nil {
		t.Fatal(err)
	}
	want := vdbench.QuickExperimentConfig()
	want.Seed = 0
	if got := req.config(base); got != want {
		t.Fatalf("quick+seed0 = %+v, want %+v", got, want)
	}
}
