package dist

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// maxReassign bounds how many times one shard may be reassigned after
// worker loss before its campaign fails.
const maxReassign = 3

// CoordinatorOptions tunes coordination behaviour; the zero value is
// usable.
type CoordinatorOptions struct {
	// HeartbeatInterval is the cadence workers are told to beat at;
	// zero selects one second.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may stay silent before its
	// shards are reassigned; zero selects five intervals.
	HeartbeatTimeout time.Duration
	// Registry receives the coordinator's metrics; nil selects a fresh
	// private registry.
	Registry *telemetry.Registry
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * o.HeartbeatInterval
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	return o
}

// coordMetrics bundles the coordinator's instruments, resolved once at
// construction.
type coordMetrics struct {
	workers          *telemetry.Gauge
	workersLost      *telemetry.Counter
	shardsPending    *telemetry.Gauge
	shardsAssigned   *telemetry.Gauge
	shardsCompleted  *telemetry.Counter
	shardsReassigned *telemetry.Counter
	campSubmitted    *telemetry.Counter
	campCompleted    *telemetry.Counter
	campFailed       *telemetry.Counter
	shardSeconds     *telemetry.Histogram
}

func newCoordMetrics(reg *telemetry.Registry) coordMetrics {
	harness.RegisterProcessCounters(reg)
	return coordMetrics{
		workers:          reg.Gauge("vd_dist_workers", "registered workers"),
		workersLost:      reg.Counter("vd_dist_workers_lost_total", "workers expired after missed heartbeats"),
		shardsPending:    reg.Gauge("vd_dist_shards_pending", "shards waiting for a worker"),
		shardsAssigned:   reg.Gauge("vd_dist_shards_assigned", "shards leased to workers"),
		shardsCompleted:  reg.Counter("vd_dist_shards_completed_total", "shards reported and accepted"),
		shardsReassigned: reg.Counter("vd_dist_shards_reassigned_total", "shards requeued after worker loss or execution failure"),
		campSubmitted:    reg.Counter("vd_dist_campaigns_submitted_total", "campaigns accepted"),
		campCompleted:    reg.Counter("vd_dist_campaigns_completed_total", "campaigns merged successfully"),
		campFailed:       reg.Counter("vd_dist_campaigns_failed_total", "campaigns that failed (policy abort, reassignment exhaustion, shutdown)"),
		shardSeconds:     reg.Histogram("vd_dist_shard_seconds", "shard turnaround from lease to accepted report", 0.01, 0.1, 0.5, 1, 5, 30, 120),
	}
}

// shardState tracks one shard through pending → assigned → done.
type shardState struct {
	camp  *campaignState
	index int // position in the campaign's shard list
	lo    int
	hi    int
	key   string

	state      string // "pending", "assigned", "done"
	worker     string
	lease      uint64 // increments on every assignment; reports must match
	reassigns  int
	assignedAt time.Time
}

// campaignState tracks one submitted campaign.
type campaignState struct {
	id     string
	spec   CampaignSpec
	nTools int
	nCases int

	shards     []*shardState
	shardByKey map[string]*shardState
	remaining  int

	// shardCells is indexed [shard][tool][case-lo] and filled by reports.
	shardCells [][][]harness.CellResult

	state string // "running", "done", "failed"
	err   error
	cells [][]harness.CellResult // assembled full grid, set when done
	done  chan struct{}
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	beat     chan struct{} // capacity 1; heartbeats do a non-blocking send
	assigned map[string]*shardState
}

// Coordinator shards submitted campaigns over registered workers and
// merges the reported cells into Campaigns byte-identical to local runs.
// All methods are safe for concurrent use.
type Coordinator struct {
	opts    CoordinatorOptions
	metrics coordMetrics

	// now is the injected clock (only ever the time.Now value outside
	// tests); keeping the call behind a field keeps the package inside
	// the detrand discipline while still observing real latency.
	now func() time.Time

	mu           sync.Mutex
	closed       bool
	draining     bool
	workers      map[string]*workerState
	campaigns    map[string]*campaignState
	pending      []*shardState // FIFO; reassigned shards go to the front
	nextWorker   uint64
	nextCampaign uint64

	// wake is closed and replaced (under mu) whenever a parked Pull may
	// have something new to see: a pending shard, its worker's expiry,
	// drain or close.
	wake chan struct{}
	done chan struct{} // closed by Close; stops worker watchdogs
}

// NewCoordinator returns a running coordinator. Close releases it.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:      opts,
		metrics:   newCoordMetrics(opts.Registry),
		now:       time.Now,
		workers:   map[string]*workerState{},
		campaigns: map[string]*campaignState{},
		wake:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Registry exposes the coordinator's metric registry (for /metrics).
func (c *Coordinator) Registry() *telemetry.Registry { return c.opts.Registry }

// BeginDrain flips readiness off ahead of shutdown, so health-checking
// clients stop routing new campaigns here while in-flight work finishes.
// It releases every parked Pull that has nothing to lease, so an HTTP
// server shutdown does not wait on them. Idempotent.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	c.wakeLocked()
}

// Ready reports whether the coordinator should receive new work: it is
// neither draining nor closed.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.draining && !c.closed
}

// wakeLocked releases every parked Pull to re-check its conditions.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Close fails every running campaign with ErrClosed and stops the worker
// watchdogs. Further mutating calls return ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	c.wakeLocked()
	ids := make([]string, 0, len(c.campaigns))
	for id := range c.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		camp := c.campaigns[id]
		if camp.state == "running" {
			c.failCampaignLocked(camp, ErrClosed)
		}
	}
	return nil
}

// Register admits a new worker and returns its ID. A watchdog goroutine
// expires the worker if it stops heartbeating; the goroutine exits on
// expiry or Close.
func (c *Coordinator) Register() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", c.nextWorker),
		beat:     make(chan struct{}, 1),
		assigned: map[string]*shardState{},
	}
	c.workers[w.id] = w
	c.metrics.workers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	go c.watchWorker(w)
	return w.id, nil
}

// Heartbeat records a sign of life from the worker.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	w, ok := c.workers[id]
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return ErrUnknownWorker
	}
	select {
	case w.beat <- struct{}{}:
	default:
	}
	return nil
}

// watchWorker expires the worker when a full heartbeat timeout elapses
// without a beat. The wait is a context deadline, not a timer — the
// sanctioned clock primitive of the deterministic packages.
func (c *Coordinator) watchWorker(w *workerState) {
	for {
		wctx, cancel := context.WithTimeout(context.Background(), c.opts.HeartbeatTimeout)
		select {
		case <-w.beat:
			cancel()
		case <-c.done:
			cancel()
			return
		case <-wctx.Done():
			cancel()
			c.expireWorker(w.id)
			return
		}
	}
}

// expireWorker drops the worker and requeues its leased shards in
// deterministic (sorted key) order at the front of the queue.
func (c *Coordinator) expireWorker(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return
	}
	delete(c.workers, id)
	c.metrics.workers.Set(int64(len(c.workers)))
	c.metrics.workersLost.Inc()
	c.wakeLocked() // the worker's own parked pull must see the expiry
	keys := make([]string, 0, len(w.assigned))
	for k := range w.assigned {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.requeueLocked(w.assigned[k])
	}
}

// requeueLocked returns an assigned shard to the front of the pending
// queue, or fails its campaign once the reassignment budget is spent.
func (c *Coordinator) requeueLocked(st *shardState) {
	if st.state != "assigned" || st.camp.state != "running" {
		return
	}
	c.metrics.shardsAssigned.Add(-1)
	st.worker = ""
	st.reassigns++
	if st.reassigns > maxReassign {
		st.state = "pending"
		c.failCampaignLocked(st.camp, fmt.Errorf("dist: campaign %s: shard %s lost %d workers, giving up",
			st.camp.id, st.key[:12], st.reassigns))
		return
	}
	st.state = "pending"
	c.pending = append([]*shardState{st}, c.pending...)
	c.metrics.shardsPending.Add(1)
	c.metrics.shardsReassigned.Inc()
	c.wakeLocked()
}

// failCampaignLocked moves a running campaign to the failed state and
// drops its queued shards.
func (c *Coordinator) failCampaignLocked(camp *campaignState, err error) {
	if camp.state != "running" {
		return
	}
	camp.state = "failed"
	camp.err = err
	keep := c.pending[:0]
	for _, st := range c.pending {
		if st.camp == camp {
			c.metrics.shardsPending.Add(-1)
			continue
		}
		keep = append(keep, st)
	}
	c.pending = keep
	c.metrics.campFailed.Inc()
	close(camp.done)
}

// Submit validates and enqueues a campaign, returning its ID. Shards are
// derived deterministically from the spec and corpus size.
func (c *Coordinator) Submit(spec CampaignSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	tools, err := BuildSuite(spec.Suite)
	if err != nil {
		return "", err
	}
	corpus, err := corpusFor(spec.Workload)
	if err != nil {
		return "", err
	}
	ranges := spec.shardRanges(len(corpus.Cases))

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	c.nextCampaign++
	camp := &campaignState{
		id:         fmt.Sprintf("c-%06d", c.nextCampaign),
		spec:       spec,
		nTools:     len(tools),
		nCases:     len(corpus.Cases),
		shardByKey: map[string]*shardState{},
		remaining:  len(ranges),
		shardCells: make([][][]harness.CellResult, len(ranges)),
		state:      "running",
		done:       make(chan struct{}),
	}
	for i, r := range ranges {
		st := &shardState{
			camp:  camp,
			index: i,
			lo:    r.lo,
			hi:    r.hi,
			key:   spec.ShardKey(r.lo, r.hi),
			state: "pending",
		}
		camp.shards = append(camp.shards, st)
		camp.shardByKey[st.key] = st
		c.pending = append(c.pending, st)
	}
	c.campaigns[camp.id] = camp
	c.metrics.shardsPending.Add(int64(len(ranges)))
	c.metrics.campSubmitted.Inc()
	c.wakeLocked()
	return camp.id, nil
}

// ShardAssignment is the wire description of one leased shard.
type ShardAssignment struct {
	Campaign string       `json:"campaign"`
	Key      string       `json:"key"`
	Spec     CampaignSpec `json:"spec"`
	Lo       int          `json:"lo"`
	Hi       int          `json:"hi"`
	Lease    uint64       `json:"lease"`
}

// Pull leases the next pending shard to the worker, parking until one is
// pending. It returns ErrUnknownWorker once the worker expires,
// ErrDraining when the coordinator drains with nothing pending, and
// ErrClosed once it closes. ok is false only when ctx ends first; a pull
// whose ctx has ended never takes a lease.
func (c *Coordinator) Pull(ctx context.Context, workerID string) (ShardAssignment, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return ShardAssignment{}, false, ErrClosed
		}
		w, ok := c.workers[workerID]
		if !ok {
			return ShardAssignment{}, false, ErrUnknownWorker
		}
		if ctx.Err() != nil {
			return ShardAssignment{}, false, nil
		}
		if asn, ok := c.leaseLocked(w); ok {
			return asn, true, nil
		}
		if c.draining {
			return ShardAssignment{}, false, ErrDraining
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
		c.mu.Lock()
	}
}

// leaseLocked assigns the first pending shard of a running campaign to
// the worker; ok is false when none is pending.
func (c *Coordinator) leaseLocked(w *workerState) (ShardAssignment, bool) {
	for len(c.pending) > 0 {
		st := c.pending[0]
		c.pending = c.pending[1:]
		c.metrics.shardsPending.Add(-1)
		if st.camp.state != "running" {
			continue
		}
		st.state = "assigned"
		st.worker = w.id
		st.lease++
		st.assignedAt = c.now()
		w.assigned[st.key] = st
		c.metrics.shardsAssigned.Add(1)
		return ShardAssignment{
			Campaign: st.camp.id,
			Key:      st.key,
			Spec:     st.camp.spec,
			Lo:       st.lo,
			Hi:       st.hi,
			Lease:    st.lease,
		}, true
	}
	return ShardAssignment{}, false
}

// Report delivers one executed shard. A non-empty execErr means the
// worker could not execute the shard (corpus or suite construction
// failed there); the shard is requeued under the same bounded budget as
// worker loss. Reports under a stale lease return ErrStaleLease and are
// discarded — the winning execution is byte-identical by determinism.
func (c *Coordinator) Report(workerID, campaignID, key string, lease uint64, cells [][]harness.CellResult, execErr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	camp, ok := c.campaigns[campaignID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownCampaign, campaignID)
	}
	st, ok := camp.shardByKey[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("dist: campaign %s has no shard %s", campaignID, key)
	}
	if st.state != "assigned" || st.worker != workerID || st.lease != lease {
		c.mu.Unlock()
		return ErrStaleLease
	}
	if w, ok := c.workers[workerID]; ok {
		delete(w.assigned, st.key)
	}
	if execErr != "" {
		c.requeueLocked(st)
		c.mu.Unlock()
		return nil
	}
	if err := c.checkShardShape(camp, st, cells); err != nil {
		// A malformed report is a worker defect, not a lease conflict:
		// requeue the shard and surface the shape error to the reporter.
		c.requeueLocked(st)
		c.mu.Unlock()
		return err
	}
	st.state = "done"
	camp.shardCells[st.index] = cells
	camp.remaining--
	finished := camp.remaining == 0 && camp.state == "running"
	c.metrics.shardsAssigned.Add(-1)
	c.metrics.shardsCompleted.Inc()
	c.metrics.shardSeconds.Observe(c.now().Sub(st.assignedAt).Seconds())
	c.mu.Unlock()

	if finished {
		c.finalize(camp)
	}
	return nil
}

// checkShardShape validates a reported grid against the shard geometry.
func (c *Coordinator) checkShardShape(camp *campaignState, st *shardState, cells [][]harness.CellResult) error {
	if len(cells) != camp.nTools {
		return fmt.Errorf("dist: shard %s report has %d tool rows, want %d", st.key[:12], len(cells), camp.nTools)
	}
	for t := range cells {
		if len(cells[t]) != st.hi-st.lo {
			return fmt.Errorf("dist: shard %s report row %d has %d cells, want %d", st.key[:12], t, len(cells[t]), st.hi-st.lo)
		}
	}
	return nil
}

// finalize assembles the full cell grid and runs the canonical merge,
// whose error (a policy abort) fails the campaign. Runs outside the
// coordinator lock; shard grids are immutable once reported, and the
// publishing step re-checks the campaign is still running (Close may
// have failed it concurrently).
func (c *Coordinator) finalize(camp *campaignState) {
	cells, err := assemble(camp)

	c.mu.Lock()
	defer c.mu.Unlock()
	if camp.state != "running" {
		return
	}
	if err != nil {
		camp.state = "failed"
		camp.err = err
		c.metrics.campFailed.Inc()
	} else {
		camp.state = "done"
		camp.cells = cells
		c.metrics.campCompleted.Inc()
	}
	close(camp.done)
}

// assemble regenerates corpus and tools, stitches the shard grids into
// the full [tool][case] grid and applies the canonical MergeShards fold,
// keeping only its error: clients merge the grid themselves.
func assemble(camp *campaignState) ([][]harness.CellResult, error) {
	corpus, err := corpusFor(camp.spec.Workload)
	if err != nil {
		return nil, err
	}
	tools, err := BuildSuite(camp.spec.Suite)
	if err != nil {
		return nil, err
	}
	full := make([][]harness.CellResult, camp.nTools)
	for t := range full {
		full[t] = make([]harness.CellResult, camp.nCases)
	}
	for i, st := range camp.shards {
		for t, row := range camp.shardCells[i] {
			copy(full[t][st.lo:st.hi], row)
		}
	}
	if _, err := harness.MergeShards(corpus, tools, full, camp.spec.Options.Degraded); err != nil {
		return nil, err
	}
	return full, nil
}

// CampaignStatus is the wire description of a campaign's progress.
type CampaignStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"` // "running", "done", "failed"
	Error  string `json:"error,omitempty"`
	Shards int    `json:"shards"`
	Done   int    `json:"done"`
}

// Status reports a campaign's progress.
func (c *Coordinator) Status(id string) (CampaignStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.campaigns[id]
	if !ok {
		return CampaignStatus{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return c.statusLocked(camp), nil
}

func (c *Coordinator) statusLocked(camp *campaignState) CampaignStatus {
	s := CampaignStatus{
		ID:     camp.id,
		State:  camp.state,
		Shards: len(camp.shards),
		Done:   len(camp.shards) - camp.remaining,
	}
	if camp.err != nil {
		s.Error = camp.err.Error()
	}
	return s
}

// WaitStatus blocks until the campaign reaches a terminal state or ctx
// expires, returning the status either way.
func (c *Coordinator) WaitStatus(ctx context.Context, id string) (CampaignStatus, error) {
	c.mu.Lock()
	camp, ok := c.campaigns[id]
	c.mu.Unlock()
	if !ok {
		return CampaignStatus{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	select {
	case <-camp.done:
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(camp), nil
}

// Cells returns the assembled full [tool][case] grid of a completed
// campaign, for clients that run the canonical merge locally.
func (c *Coordinator) Cells(id string) ([][]harness.CellResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	switch camp.state {
	case "done":
		return camp.cells, nil
	case "failed":
		return nil, camp.err
	default:
		return nil, ErrNotDone
	}
}
