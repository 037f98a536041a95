package service

// Live progress streaming. Each running job owns a progress aggregator
// fed by the harness progress seam (vdbench.WithCampaignProgress); the
// aggregator folds per-cell confusion deltas into per-tool incremental
// metric estimates and publishes snapshots to an event hub. Subscribers
// (the SSE handler in http.go) each hold a bounded one-slot mailbox:
// a publish replaces any undelivered snapshot and counts the
// replacement as a drop, so a slow or stalled client coalesces to the
// freshest state and the campaign workers never block on delivery.
// The snapshots are cumulative, which is what makes coalescing sound —
// the latest one subsumes everything dropped before it.

import (
	"sort"
	"sync"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// ToolProgress is one tool's incremental standing mid-campaign: its
// accumulated confusion matrix and the metric estimates computed from
// it. Estimates converge to the final campaign values as cells finish.
type ToolProgress struct {
	Tool      string            `json:"tool"`
	Confusion vdbench.Confusion `json:"confusion"`
	Precision float64           `json:"precision"`
	Recall    float64           `json:"recall"`
	F1        float64           `json:"f1"`
}

// ProgressUpdate is one cumulative progress snapshot of a running job:
// monotone done/total cell counts plus per-tool incremental estimates.
// Later snapshots subsume earlier ones. A job may run several campaigns
// (the shared campaign and then its own, or E18's fault campaigns):
// Done and Total count the cells of every run seen so far, and Tools
// shows the newest run only.
type ProgressUpdate struct {
	Job   string `json:"job"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Failed counts cells that exhausted every execution attempt.
	Failed int            `json:"failed,omitempty"`
	Tools  []ToolProgress `json:"tools"`
}

// progressAggregator folds per-cell progress events into cumulative
// snapshots. One exists per running job; the harness calls observe from
// its worker goroutines.
type progressAggregator struct {
	job string
	hub *eventHub

	mu     sync.Mutex
	done   int
	total  int
	failed int
	runs   map[uint64]bool // campaign runs seen
	newest uint64          // the run byTool accumulates
	byTool map[string]vdbench.Confusion
}

func newProgressAggregator(job string, hub *eventHub) *progressAggregator {
	return &progressAggregator{job: job, hub: hub, runs: map[uint64]bool{}, byTool: map[string]vdbench.Confusion{}}
}

// observe folds one harness progress event and publishes the resulting
// snapshot. It is the installed vdbench.CampaignProgressFunc, so it
// must stay fast and non-blocking: snapshot building is O(tools) and
// publish is a mailbox swap.
//
// The first event of a run adds the run's Total. A run that starts later
// than every run seen so far replaces the tool rows; events of older
// runs still count towards done, but never into a row, so no row adds up
// cells from two runs.
func (a *progressAggregator) observe(ev vdbench.CampaignProgressEvent) {
	a.mu.Lock()
	if !a.runs[ev.Run] {
		a.runs[ev.Run] = true
		a.total += ev.Total
		if len(a.runs) == 1 || ev.Run > a.newest {
			a.newest = ev.Run
			clear(a.byTool)
		}
	}
	a.done++
	if ev.Failed {
		a.failed++
	}
	if ev.Run == a.newest {
		a.byTool[ev.Tool] = a.byTool[ev.Tool].Add(ev.Confusion)
	}
	// Publishing under a.mu keeps the published sequence in done order:
	// a worker preempted between building its snapshot and publishing it
	// would otherwise overwrite a newer one.
	a.hub.publish(a.job, a.snapshotLocked())
	a.mu.Unlock()
}

// snapshotLocked renders the cumulative state; callers hold a.mu. The
// local done counter (not ev.Done) keeps the stream monotone even
// though harness workers may call observe out of completion order.
func (a *progressAggregator) snapshotLocked() ProgressUpdate {
	names := make([]string, 0, len(a.byTool))
	for name := range a.byTool {
		names = append(names, name)
	}
	sort.Strings(names)
	tools := make([]ToolProgress, len(names))
	for i, name := range names {
		c := a.byTool[name]
		tools[i] = ToolProgress{
			Tool:      name,
			Confusion: c,
			Precision: ratio(c.TP, c.TP+c.FP),
			Recall:    ratio(c.TP, c.TP+c.FN),
		}
		tools[i].F1 = harmonic(tools[i].Precision, tools[i].Recall)
	}
	return ProgressUpdate{Job: a.job, Done: a.done, Total: a.total, Failed: a.failed, Tools: tools}
}

// ratio is n/d with the 0/0 case defined as 0 — undefined estimates
// render as zero rather than as JSON-hostile NaN.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func harmonic(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// eventSub is one subscriber's mailbox: a single coalescing slot plus a
// wake-up channel. publish never blocks on it; the reader drains the
// freshest snapshot and the count of snapshots that were replaced
// before it got there.
type eventSub struct {
	mu      sync.Mutex
	latest  ProgressUpdate
	pending bool
	dropped uint64

	notify chan struct{} // cap 1; a send is a wake-up, not a hand-off
}

// offer replaces the undelivered snapshot (if any) with next and wakes
// the reader. Returns whether an undelivered snapshot was dropped.
func (sub *eventSub) offer(next ProgressUpdate) bool {
	sub.mu.Lock()
	droppedOne := sub.pending
	if droppedOne {
		sub.dropped++
	}
	sub.latest = next
	sub.pending = true
	sub.mu.Unlock()
	select {
	case sub.notify <- struct{}{}:
	default: // reader already has a wake-up pending
	}
	return droppedOne
}

// take drains the mailbox: the freshest snapshot, the drop count since
// the last take, and whether anything was pending at all.
func (sub *eventSub) take() (ProgressUpdate, uint64, bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.pending {
		return ProgressUpdate{}, 0, false
	}
	u, d := sub.latest, sub.dropped
	sub.pending, sub.dropped = false, 0
	return u, d, true
}

// eventHub routes progress snapshots to per-job subscriber sets.
type eventHub struct {
	mu   sync.Mutex
	subs map[string]map[*eventSub]struct{}

	dropped *telemetry.Counter
}

func newEventHub() *eventHub {
	return &eventHub{subs: map[string]map[*eventSub]struct{}{}}
}

// subscribe attaches a new mailbox to a job's event stream.
func (h *eventHub) subscribe(job string) *eventSub {
	sub := &eventSub{notify: make(chan struct{}, 1)}
	h.mu.Lock()
	set := h.subs[job]
	if set == nil {
		set = map[*eventSub]struct{}{}
		h.subs[job] = set
	}
	set[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// unsubscribe detaches a mailbox; idempotent.
func (h *eventHub) unsubscribe(job string, sub *eventSub) {
	h.mu.Lock()
	if set := h.subs[job]; set != nil {
		delete(set, sub)
		if len(set) == 0 {
			delete(h.subs, job)
		}
	}
	h.mu.Unlock()
}

// publish offers the snapshot to every subscriber of the job. Called
// from campaign worker goroutines: the offer is a mutex-guarded slot
// swap, never a blocking send, so workers cannot stall on subscribers.
func (h *eventHub) publish(job string, update ProgressUpdate) {
	h.mu.Lock()
	subs := make([]*eventSub, 0, len(h.subs[job]))
	for sub := range h.subs[job] {
		subs = append(subs, sub)
	}
	dropCounter := h.dropped
	h.mu.Unlock()
	var drops uint64
	for _, sub := range subs {
		if sub.offer(update) {
			drops++
		}
	}
	if dropCounter != nil && drops > 0 {
		dropCounter.Add(drops)
	}
}
