package svc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
)

// MaxBatchCells is the documented cap on cells per batch group — the
// 413 threshold of POST /v1/batch. It matches the registry's default
// MaxJobs bound: one batch can never evict more history than a full
// registry would anyway.
const MaxBatchCells = 4096

// batchSyncEvery is the group-commit fsync stride: member terminal
// transitions are appended to the journal without an immediate fsync,
// and the batch driver syncs once per this many completions (and once
// at group end). A crash inside a stride loses only those unsynced
// transitions; replay re-runs the affected members from the group's
// accepted record and the deterministic simulators reproduce the same
// cycle counts.
const batchSyncEvery = 32

// ErrBatchTooLarge is returned by Service.SubmitBatch when a group
// exceeds MaxBatchCells; the HTTP layer serves it as 413.
var ErrBatchTooLarge = fmt.Errorf("svc: batch exceeds %d cells", MaxBatchCells)

// ErrBatchEmpty is returned for a batch with no cells.
var ErrBatchEmpty = errors.New("svc: empty batch")

// BatchSpecError reports the first invalid spec in a batch by its
// 0-based index, so the HTTP layer can point the client at the exact
// NDJSON line.
type BatchSpecError struct {
	Index int
	Err   error
}

func (e *BatchSpecError) Error() string {
	return fmt.Sprintf("svc: batch cell %d: %v", e.Index, e.Err)
}

func (e *BatchSpecError) Unwrap() error { return e.Err }

// BatchOptions configures one batch group admission.
type BatchOptions struct {
	// Priority is the admission class for every cell. The zero value
	// is PriorityInteractive; grid sweeps should use PriorityBatch so
	// they queue behind (and shed before) request traffic.
	Priority Priority
	// Budget, when positive, is the group's deadline budget: one
	// drain-estimate check admits or refuses the whole group, and every
	// cell inherits the expiry (cells still queued past it are dropped
	// at worker pickup).
	Budget time.Duration
}

// BatchResult is one completed cell, delivered in completion order.
type BatchResult struct {
	// Index is the cell's 0-based position in the submitted group.
	Index int `json:"index"`
	Job
}

// BatchGrid is the compact grid-expansion form: the cross product
// machines × kernels × workloads, in row-major order (machines outer,
// kernels middle, workloads inner). Empty Machines or Kernels default
// to the five paper machines and the three paper kernels; empty
// Workloads means the paper workload.
type BatchGrid struct {
	Machines  []string         `json:"machines,omitempty"`
	Kernels   []core.KernelID  `json:"kernels,omitempty"`
	Workloads []*core.Workload `json:"workloads,omitempty"`
}

// Expand returns the grid's cells as job specs. Validation happens at
// admission, per cell, so an invalid machine name still reports the
// exact cell index.
func (g BatchGrid) Expand() []JobSpec {
	ms := g.Machines
	if len(ms) == 0 {
		ms = machines.Names()
	}
	ks := g.Kernels
	if len(ks) == 0 {
		ks = core.Kernels()
	}
	ws := g.Workloads
	if len(ws) == 0 {
		ws = []*core.Workload{nil}
	}
	specs := make([]JobSpec, 0, len(ms)*len(ks)*len(ws))
	for _, m := range ms {
		for _, k := range ks {
			for _, w := range ws {
				specs = append(specs, JobSpec{Machine: m, Kernel: k, Workload: w})
			}
		}
	}
	return specs
}

// BatchRun is a running batch group: the acceptance snapshots of every
// member job plus a stream of completions.
type BatchRun struct {
	jobs    []Job
	results chan BatchResult
	abort   chan struct{}
	cancel  sync.Once
	metrics *Metrics
}

// Jobs returns the members' acceptance snapshots, index-aligned with
// the submitted specs.
func (b *BatchRun) Jobs() []Job { return b.jobs }

// Results streams completed cells in completion order; the channel is
// closed after the last cell. The channel is buffered for the whole
// group, so an abandoned consumer never wedges the workers.
func (b *BatchRun) Results() <-chan BatchResult { return b.results }

// Cancel stops the group's unstarted cells: queued cells are dropped at
// worker pickup with context.Canceled, running cells finish normally,
// and completed cells are unaffected. Safe to call more than once.
func (b *BatchRun) Cancel() {
	b.cancel.Do(func() {
		close(b.abort)
		if b.metrics != nil {
			b.metrics.batchCancelled()
		}
	})
}

// normalizeSpecs returns each spec's canonical form and hash, or a
// *BatchSpecError naming the first invalid spec.
func normalizeSpecs(specs []JobSpec) ([]JobSpec, []string, error) {
	norms := make([]JobSpec, len(specs))
	hashes := make([]string, len(specs))
	for i, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			return nil, nil, &BatchSpecError{Index: i, Err: err}
		}
		hash, err := norm.Hash()
		if err != nil {
			return nil, nil, &BatchSpecError{Index: i, Err: err}
		}
		norms[i], hashes[i] = norm, hash
	}
	return norms, hashes, nil
}

// SubmitBatch admits a group of specs as one unit — the service half of
// the grid fast path. One admission covers the group: a single
// deadline-budget drain check, one breaker probe per distinct machine
// (not per cell), one registry lock hold for all member registrations,
// and one CRC32C journal record (one fsync) making every member's
// acceptance durable. Cells execute through Pool.SubmitBatch, so cached
// and duplicate cells never occupy a worker slot and cold cells run on
// per-worker reused machine instances. ctx cancellation (or
// BatchRun.Cancel) stops cells that have not started; everything
// already running completes and is journaled.
//
// Unlike the single-job path, batch cells take no Idempotency-Key and
// register none: duplicate simulations are suppressed by the memo table
// and in-flight coalescing, which serve the same purpose without a
// per-cell registry lookup.
func (s *Service) SubmitBatch(ctx context.Context, specs []JobSpec, opts BatchOptions) (*BatchRun, error) {
	if len(specs) == 0 {
		return nil, ErrBatchEmpty
	}
	if len(specs) > MaxBatchCells {
		return nil, ErrBatchTooLarge
	}
	norms, hashes, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}

	// One deadline-budget check for the whole group: either the queue
	// can drain a new admission within the budget or the group is
	// refused now, instead of queueing cells doomed to expire one by
	// one.
	if opts.Budget > 0 {
		if est := s.drainEstimate(opts.Priority); est > opts.Budget {
			s.Metrics().budgetRejected()
			return nil, fmt.Errorf("svc: batch of %d: remaining budget %s below drain estimate %s: %w",
				len(specs), opts.Budget, est, ErrBudgetExhausted)
		}
	}

	// One breaker probe per distinct machine in the group. Outcomes are
	// recorded once per machine at group end: a machine with any genuine
	// execution failure records failure, one that only executed
	// successfully records success, and one that never exercised its
	// backend (all cache hits, or only cancellations) releases the probe.
	type outcome struct {
		executed bool
		failed   bool
	}
	breakers := make(map[string]*outcome)
	for _, norm := range norms {
		if _, ok := breakers[norm.Machine]; ok {
			continue
		}
		if err := s.breakers.Get(norm.Machine).Allow(); err != nil {
			s.Metrics().breakerRejected()
			for name := range breakers {
				s.breakers.Get(name).Cancel()
			}
			return nil, fmt.Errorf("svc: machine %s: %w", norm.Machine, err)
		}
		breakers[norm.Machine] = &outcome{}
	}
	releaseBreakers := func() {
		for name := range breakers {
			s.breakers.Get(name).Cancel()
		}
	}

	// Register every member under one lock hold and journal the whole
	// group's acceptance as one record. A journal failure rolls all of
	// it back — a durable service must not accept work it cannot
	// promise to remember, and a group is accepted whole or not at all.
	now := time.Now()
	members := make([]*Job, len(specs))
	s.mu.Lock()
	for i := range norms {
		s.seq++
		j := &Job{
			ID:          fmt.Sprintf("%sj%06d-%s", s.idPrefix, s.seq, hashes[i][:8]),
			Spec:        norms[i],
			Hash:        hashes[i],
			State:       Queued,
			Tier:        TierSimulate,
			Priority:    opts.Priority,
			Submitted:   now,
			groupCommit: s.journal != nil,
		}
		j.Trace = append(make([]obs.Event, 0, 4),
			obs.Event{Name: obs.EventAccepted, Time: now, Note: "batch"},
			obs.Event{Name: obs.EventQueued, Time: now})
		members[i] = j
	}
	if err := s.journalBatchAcceptedLocked(members); err != nil {
		s.seq -= uint64(len(members))
		s.mu.Unlock()
		releaseBreakers()
		return nil, err
	}
	for _, j := range members {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.evictLocked()
	s.mu.Unlock()
	s.Metrics().batchAccepted(len(specs))

	run := &BatchRun{
		jobs:    make([]Job, len(specs)),
		results: make(chan BatchResult, len(specs)),
		abort:   make(chan struct{}),
		metrics: s.Metrics(),
	}
	for i, j := range members {
		run.jobs[i] = j.clone(false)
	}

	tasks := make([]Task, len(specs))
	for i := range norms {
		i := i
		norm := norms[i]
		id := members[i].ID
		tasks[i] = Task{
			Label:    fmt.Sprintf("%s/%s", norm.Machine, norm.Kernel),
			MemoKey:  hashes[i],
			Cell:     obs.Labels{Machine: norm.Machine, Kernel: string(norm.Kernel)},
			Priority: opts.Priority,
			OnStart:  func() { s.markRunning(id) },
			OnRetry: func(attempt int, err error) {
				s.traceEvent(id, obs.EventRetried, fmt.Sprintf("attempt %d: %v", attempt, err))
			},
			// The machine-reuse path: the worker resolves an instance
			// from its cache and RunOn is a pure function of (spec,
			// instance), so the reuse-sampling guard may re-run it on a
			// fresh instance for verification. Config-carrying cells get
			// a per-spec factory and a config hash that keys the reuse
			// cache, so a design-space batch can never hand a cell an
			// instance built for different hardware.
			Machine:    norm.Machine,
			Factory:    s.factoryFor(norm),
			ConfigHash: norm.ConfigHash(),
			RunOn: func(_ context.Context, m core.Machine) (core.Result, error) {
				return core.Run(m, norm.Kernel, *norm.Workload)
			},
			Abort: run.abort,
		}
		if opts.Budget > 0 {
			tasks[i].Expires = now.Add(opts.Budget)
		}
	}
	futs, err := s.pool.SubmitBatch(ctx, tasks)
	if err != nil {
		// Registered but never enqueued (pool closed or an invalid
		// task): fail every member so the registry reaches a terminal —
		// or, on shutdown, re-enqueueable — state.
		for _, j := range members {
			s.finish(j.ID, core.Result{}, false, err)
		}
		s.syncJournal()
		releaseBreakers()
		return nil, err
	}

	var (
		mu        sync.Mutex // guards breaker outcomes
		wg        sync.WaitGroup
		completed atomic.Uint64
	)
	for i := range futs {
		i := i
		fut := futs[i]
		id := members[i].ID
		machine := norms[i].Machine
		s.wg.Add(1)
		wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer wg.Done()
			res, werr := fut.Wait(context.Background())
			s.finish(id, res, fut.FromCache(), werr)
			if werr == nil && !fut.FromCache() {
				s.recordModelDrift(norms[i], res)
			}
			mu.Lock()
			o := breakers[machine]
			switch {
			case werr == nil && !fut.FromCache():
				o.executed = true
			case werr != nil && !errors.Is(werr, ErrBudgetExhausted) &&
				!errors.Is(werr, context.Canceled) && !errors.Is(werr, ErrPoolClosed):
				o.executed, o.failed = true, true
			}
			mu.Unlock()
			// Amortized group commit: fsync the deferred terminal
			// appends once per stride instead of once per cell.
			if completed.Add(1)%batchSyncEvery == 0 {
				s.syncJournal()
			}
			run.results <- BatchResult{Index: i, Job: s.snapshot(id)}
		}()
	}
	go func() {
		wg.Wait()
		s.syncJournal()
		for name, o := range breakers {
			br := s.breakers.Get(name)
			switch {
			case o.failed:
				br.Record(false)
			case o.executed:
				br.Record(true)
			default:
				br.Cancel()
			}
		}
		close(run.results)
	}()
	return run, nil
}

// syncJournal flushes deferred group-commit appends to disk; a no-op
// without a journal. Failures count like any other append error (and
// degrade /healthz) — the in-memory state is still correct.
func (s *Service) syncJournal() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Sync(); err != nil {
		s.Metrics().journalAppendError()
	}
}
