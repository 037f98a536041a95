package service

// This file is the durability layer of the job scheduler: a jobStore
// wrapping the append-only lifecycle journal and the content-addressed
// result store (internal/journal), the gob result codec, and the replay
// that rebuilds scheduler state on start. The division of labour with
// internal/journal: that package knows framing, checksums and fsync;
// this file knows what the records mean — which job states they imply,
// what re-enqueues, and what rehydrates the cache.
//
// Everything rests on the determinism guarantee: an experiment result
// is a pure function of (experiment, config minus operational knobs),
// so a job that was running at crash time can simply re-execute from
// its journaled config and produce a byte-identical result. That is
// why replay never needs partial campaign state — the journal records
// intent, not progress.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/journal"
)

// Journal record types and terminal statuses. The journal package
// treats these as opaque; this is the authoritative vocabulary.
const (
	recSubmitted = "submitted"
	recStarted   = "started"
	recFinished  = "finished"
)

// jobStore bundles the lifecycle journal and the result blob store of
// one data directory. Nil *jobStore (persistence disabled) is valid:
// every method no-ops.
type jobStore struct {
	journal *journal.Journal
	blobs   *journal.Store
}

// openJobStore opens (or initialises) the durable store under dir and
// returns the replayed lifecycle records.
func openJobStore(dir string) (*jobStore, []journal.Record, journal.ReplayStats, error) {
	j, records, stats, err := journal.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, nil, journal.ReplayStats{}, err
	}
	blobs, err := journal.OpenStore(filepath.Join(dir, "results"))
	if err != nil {
		j.Close()
		return nil, nil, journal.ReplayStats{}, err
	}
	return &jobStore{journal: j, blobs: blobs}, records, stats, nil
}

func (st *jobStore) close() {
	if st != nil {
		st.journal.Close()
	}
}

// encodeResult and decodeResult are the persistence codec for
// experiment results. Gob rather than JSON: the JSON rendering is
// deliberately lossy (table rows are padded to the header width,
// non-finite figure points become null), while the gob form — with
// report.Table's custom GobEncode — round-trips the exact in-memory
// artefacts, so every render format of a recovered result is
// byte-identical to the original's.
func encodeResult(res vdbench.ExperimentResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeResult(data []byte) (vdbench.ExperimentResult, error) {
	var res vdbench.ExperimentResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&res); err != nil {
		return vdbench.ExperimentResult{}, fmt.Errorf("service: decoding result: %w", err)
	}
	return res, nil
}

// journalAppend writes one lifecycle record. Append failures are
// deliberately non-fatal to the job (the in-memory run proceeds; only
// durability degrades) but are counted on vd_journal_errors_total so
// operators see a dying disk instead of silent data loss.
func (s *Service) journalAppend(rec journal.Record) {
	if s.store == nil || s.storeOff.Load() {
		return
	}
	if err := s.store.journal.Append(rec); err != nil {
		s.mJournalErrors.Inc()
		return
	}
	s.mJournalRecords.Inc()
}

func (s *Service) journalSubmitted(job *Job) {
	cfg, err := json.Marshal(job.cfg)
	if err != nil {
		s.mJournalErrors.Inc()
		return
	}
	s.journalAppend(journal.Record{
		Type:       recSubmitted,
		Job:        job.id,
		Ord:        job.ord,
		Experiment: job.experiment,
		Key:        job.key,
		Config:     cfg,
	})
}

func (s *Service) journalStarted(job *Job) {
	s.journalAppend(journal.Record{Type: recStarted, Job: job.id})
}

func (s *Service) journalFinished(job *Job, status Status, err error) {
	rec := journal.Record{Type: recFinished, Job: job.id, Status: string(status)}
	if err != nil && status == StatusFailed {
		rec.Error = err.Error()
	}
	s.journalAppend(rec)
}

// persistResult writes a finished job's result to the blob store before
// the finished record is journaled, so a "finished done" record always
// refers to a blob that was durable first. A missing blob at replay
// (crash between the two writes, or a failed Put) just re-enqueues the
// job — determinism makes recomputation equivalent.
func (s *Service) persistResult(key string, res vdbench.ExperimentResult) {
	if s.store == nil || s.storeOff.Load() {
		return
	}
	data, err := encodeResult(res)
	if err != nil {
		s.mJournalErrors.Inc()
		return
	}
	if err := s.store.blobs.Put(key, data); err != nil {
		s.mJournalErrors.Inc()
		return
	}
	s.mBlobsWritten.Inc()
}

// storedResult consults the content-addressed store for key, decoding
// and verifying in one step. Used both by replay (rehydration) and as
// the second-level cache behind the in-memory LRU.
func (s *Service) storedResult(key string) (vdbench.ExperimentResult, bool) {
	if s.store == nil {
		return vdbench.ExperimentResult{}, false
	}
	data, ok := s.store.blobs.Get(key)
	if !ok {
		return vdbench.ExperimentResult{}, false
	}
	res, err := decodeResult(data)
	if err != nil {
		return vdbench.ExperimentResult{}, false
	}
	return res, true
}

// RecoveryStats summarises what replay rebuilt on start; vdserved logs
// it and tests assert on it.
type RecoveryStats struct {
	// Records is the number of intact journal records replayed; Torn
	// counts damaged trailing lines dropped by the CRC guard.
	Records int `json:"records"`
	Torn    int `json:"torn"`
	// Restored counts terminal jobs rebuilt as queryable history;
	// Rehydrated of them had their results loaded back into the LRU
	// cache from the content-addressed store.
	Restored   int `json:"restored"`
	Rehydrated int `json:"rehydrated"`
	// Requeued counts jobs put back on the queue: submitted-but-not-
	// finished at crash time (queued or running), plus finished jobs
	// whose result blob was missing or damaged.
	Requeued int `json:"requeued"`
	// MissingBlobs counts "finished done" records whose blob did not
	// verify; OrphanBlobs counts blob files no journal record explains.
	MissingBlobs int `json:"missing_blobs"`
	OrphanBlobs  int `json:"orphan_blobs"`
}

// Recovery returns the replay summary of this service's start (zero
// when persistence is disabled or the store was empty).
func (s *Service) Recovery() RecoveryStats { return s.recovery }

// replayState is the folded view of one job's journal records.
type replayState struct {
	sub      journal.Record
	finished bool
	status   Status
	errMsg   string
}

// foldRecords collapses the record stream into per-job end states,
// returned in submission (ordinal) order. Later records win: a job
// re-executed after an earlier recovery may carry several started and
// finished records, and only the last terminal state is current.
func foldRecords(records []journal.Record) []*replayState {
	byID := map[string]*replayState{}
	var order []*replayState
	for _, rec := range records {
		switch rec.Type {
		case recSubmitted:
			if byID[rec.Job] != nil {
				continue // duplicate submitted record; first wins
			}
			st := &replayState{sub: rec}
			byID[rec.Job] = st
			order = append(order, st)
		case recFinished:
			if st := byID[rec.Job]; st != nil {
				st.finished = true
				st.status = Status(rec.Status)
				st.errMsg = rec.Error
			}
		case recStarted:
			// Start marks carry no replay decision: an unfinished job
			// re-executes whether or not it had started. They stay in the
			// journal as forensic breadcrumbs.
		}
	}
	sort.SliceStable(order, func(i, k int) bool { return order[i].sub.Ord < order[k].sub.Ord })
	return order
}

// replayLocked rebuilds scheduler state from the journal: terminal jobs
// become queryable history (done jobs rehydrate the cache from the blob
// store), unfinished jobs re-enqueue in submission order, and job IDs
// and ordinals continue where the previous process stopped. Called from
// newService before the queue exists or any worker runs, so no locking
// is needed despite the name — it owns the whole Service.
//
// The returned jobs are the re-enqueue backlog in original order.
func (s *Service) replayLocked(records []journal.Record, stats journal.ReplayStats) []*Job {
	s.recovery.Records = stats.Records
	s.recovery.Torn = stats.Torn
	s.mJournalReplayed.Add(uint64(stats.Records))
	s.mJournalTorn.Add(uint64(stats.Torn))

	referenced := map[string]bool{}
	var backlog []*Job
	for _, st := range foldRecords(records) {
		rec := st.sub
		referenced[rec.Key] = true
		var cfg vdbench.ExperimentConfig
		if err := json.Unmarshal(rec.Config, &cfg); err != nil {
			// A config that does not parse cannot re-execute; surface the
			// job as failed rather than silently dropping it.
			st.finished, st.status = true, StatusFailed
			st.errMsg = fmt.Sprintf("recovery: journaled config unreadable: %v", err)
		}
		job := s.restoredJob(rec, cfg)

		if st.finished && st.status == StatusDone {
			if res, ok := s.storedResult(rec.Key); ok {
				s.cacheResult(rec.Key, res)
				s.recovery.Rehydrated++
				s.completeRestored(job, StatusDone, res, nil)
				continue
			}
			// Finished per the journal, result lost or damaged: recompute.
			// Determinism makes the re-run byte-identical to what the blob
			// held, so requeueing is full recovery, not degradation.
			s.recovery.MissingBlobs++
			s.mJournalMissingBlobs.Inc()
			backlog = append(backlog, job)
			continue
		}
		if st.finished {
			switch st.status {
			case StatusFailed:
				s.completeRestored(job, StatusFailed, vdbench.ExperimentResult{}, errors.New(st.errMsg))
			default: // canceled (or an unknown status from the future: treat as canceled)
				s.completeRestored(job, StatusCanceled, vdbench.ExperimentResult{}, context.Canceled)
			}
			continue
		}
		backlog = append(backlog, job)
	}

	// Blobs no journal record explains: a journal lost to damage, or
	// manual file drops. They stay on disk — the lazy blob lookup can
	// still serve them to a future submission with the same key — but
	// they are counted so operators notice the mismatch.
	if keys, err := s.store.blobs.Keys(); err == nil {
		for _, k := range keys {
			if !referenced[k] {
				s.recovery.OrphanBlobs++
				s.mJournalOrphanBlobs.Inc()
			}
		}
	}

	s.recovery.Requeued = len(backlog)
	for _, job := range backlog {
		s.seq++
		job.seq = s.seq
		s.jobs[job.id] = job
		if s.inflight[job.key] == nil {
			s.inflight[job.key] = job
		}
	}
	return backlog
}

// restoredJob rebuilds a Job from its submitted record, advancing the
// ID and ordinal counters past every replayed value so new submissions
// never collide with journaled ones.
func (s *Service) restoredJob(rec journal.Record, cfg vdbench.ExperimentConfig) *Job {
	if n, ok := numericJobID(rec.Job); ok && n > s.nextID {
		s.nextID = n
	}
	if rec.Ord > s.nextOrd {
		s.nextOrd = rec.Ord
	}
	ctx, cancel := context.WithCancel(s.rootCtx)
	return &Job{
		id:         rec.Job,
		key:        rec.Key,
		experiment: rec.Experiment,
		cfg:        cfg,
		ord:        rec.Ord,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		status:     StatusQueued,
	}
}

// completeRestored publishes a replayed terminal job into the history.
func (s *Service) completeRestored(job *Job, status Status, res vdbench.ExperimentResult, err error) {
	job.status = status
	job.result = res
	job.err = err
	job.cached = status == StatusDone // served from the store, not a fresh campaign
	close(job.done)
	job.cancel()
	s.recovery.Restored++
	s.rememberLocked(job)
}

// numericJobID extracts the counter from a "j-%06d" job ID.
func numericJobID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
