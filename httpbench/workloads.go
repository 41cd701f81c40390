package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/journal"
	"sigkern/internal/svc"
)

// Each workload makes one layer the bottleneck and leaves others idle
// (README.md has the full table):
//   - paper-grid: the simulators do nearly all the work; the service
//     path is almost free.
//   - api-mix: simulators do almost nothing; request decode, spec
//     normalization and hashing, the memo, admission, Wait and encode
//     dominate.
//   - cluster-durable: the journal's fsyncs, the gateway's split, merge
//     and relay, and design-space expansion dominate.

const (
	apiRate       = 100.0 // api-mix arrivals per second
	apiSenders    = 2
	clusterBatch  = 64 // tiny cells per cluster-durable batch
	clusterClient = 2
)

// late records how far behind its due time the generator sent a
// request, and returns the send time.
func (r *runner) late(due time.Time) time.Time {
	now := time.Now()
	r.measure.late.addDur(now.Sub(due), time.Millisecond)
	return now
}

// idPool remembers recently answered job IDs and their cycle counts, so
// reads ask for jobs that exist and check what comes back.
type idPool struct {
	mu     sync.Mutex
	ids    []string
	cycles map[string]uint64
}

// idWindow is how many recent answers reads choose from.
const idWindow = 256

func (p *idPool) add(id string, cycles uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cycles == nil {
		p.cycles = map[string]uint64{}
	}
	p.ids = append(p.ids, id)
	p.cycles[id] = cycles
	if len(p.ids) >= 2*idWindow {
		for _, old := range p.ids[:len(p.ids)-idWindow] {
			delete(p.cycles, old)
		}
		p.ids = append(p.ids[:0], p.ids[len(p.ids)-idWindow:]...)
	}
}

// pick returns one of the idWindow most recent IDs.
func (p *idPool) pick(rng *rand.Rand) (string, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", 0, false
	}
	window := min(len(p.ids), idWindow)
	id := p.ids[len(p.ids)-1-rng.Intn(window)]
	return id, p.cycles[id], true
}

// read fetches id through base and checks it is the answer given
// earlier.
func (r *runner) read(base, id string, want uint64) (jobCall, error) {
	jc, err := getJob(r.ctx, r.hc(), base, id)
	if err != nil {
		return jc, err
	}
	if jc.job.Result.Cycles != want {
		r.chk.fail("read %s: cycles %d, first answered %d", id, jc.job.Result.Cycles, want)
	}
	return jc, nil
}

// dseBaseCheck asks base for an empty exploration around one Table 3
// cell: its single point must be the pinned cell.
func (r *runner) dseBaseCheck(base string) {
	specs := paperSpecs()
	spec := specs[r.rng.Intn(len(specs))]
	points, _, err := postDSE(r.ctx, r.hc(), base, svc.DSERequest{Base: spec})
	r.verify.record("dse-base", err)
	if err != nil {
		return
	}
	want := pinned[cellKey(spec.Machine, spec.Kernel)].Cycles
	if len(points) != 1 || points[0].State != svc.Done || points[0].Cycles != want {
		r.chk.fail("dse base %s/%s: %+v, Table 3 has %d cycles", spec.Machine, spec.Kernel, points, want)
	}
}

// sleepUntil returns at t. Sleeps shorter than the runtime's timer
// granularity (about 1ms) overshoot, so the last millisecond is spun.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// beginMeasure opens the measurement window and starts sampling memory.
func (r *runner) beginMeasure() {
	r.perSecond = make([]atomic.Int64, int(r.window()/time.Second)+2)
	r.secPeak = make([]float64, len(r.perSecond))
	r.start = time.Now()
	r.cpu = cpuTime()
	r.memStop = make(chan struct{})
	r.memDone = make(chan struct{})
	go func() {
		defer close(r.memDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			r.sampleMem()
			select {
			case <-r.memStop:
				return
			case <-tick.C:
			}
		}
	}()
}

// endMeasure closes the measurement window.
func (r *runner) endMeasure() error {
	r.elapsed = time.Since(r.start)
	r.cpu = cpuTime() - r.cpu
	close(r.memStop)
	<-r.memDone
	r.sampleMem()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.rssMB = rss
	return nil
}

// reuseStats folds one service's machine-reuse ledger into the run's.
func (r *runner) reuseStats(snap svc.Snapshot) {
	r.reuse.reuses += snap.MachineReuses
	r.reuse.builds += snap.MachineBuilds
	r.reuse.checks += snap.ReuseChecks
	r.reuse.cells += snap.BatchCells + snap.Done
}

// paperGrid posts the 15 Table 3 cells as one /v1/batch to a fresh
// memory-only simserved per operation (cold memo, cold machine caches),
// closed loop, one client.
func paperGrid(r *runner) error {
	r.mainClass, r.sideClass = "grid", "first"
	r.client = newClient(1)
	for i := 0; i < 40; i++ {
		var s *simserved
		err := r.timeSetup(func() (err error) {
			s, err = startSimserved(r.cfg.factory)
			if err != nil {
				return err
			}
			return waitReady(r.ctx, r.hc(), s.url())
		})
		if s != nil {
			s.close()
		}
		if err != nil {
			return err
		}
	}
	plain := paperSpecs()
	r.beginMeasure()
	deadline := r.start.Add(r.window())
	due := r.start
	var memo []float64
	for time.Now().Before(deadline) {
		s, err := startSimserved(r.cfg.factory)
		if err != nil {
			return err
		}
		specs := make([]svc.JobSpec, len(plain))
		for i, p := range plain {
			specs[i] = spellPaper(p, r.rng)
		}
		t0 := r.late(due)
		traced := r.tracedAt(t0, 4*time.Second)
		op := r.tr.newOp()
		root := r.tr.begin(op, nil, "op.grid")
		hs := r.tr.begin(op, root, "http.batch")
		cells, sc, err := postBatch(r.ctx, r.hc(), s.url(), specs)
		hs.end()
		r.measure.record("grid", err)
		if err == nil {
			r.opDone("grid", t0, traced)
			r.opSample("first", sc.first.Sub(t0), traced)
			for _, c := range cells {
				r.checkCell("paper-grid cell", plain[c.Index], c)
			}
			r.cells += len(cells)
			r.resultBytes.add(float64(sc.bytes) / float64(len(cells)+1))
		}
		r.reuseStats(s.svc.Metrics().Snapshot())
		memo = append(memo, s.svc.Pool().MemoHitRate())
		s.close()
		if traced {
			side := svc.NewService(svc.Options{Pool: svc.PoolOptions{Workers: serverWorkers}, Factory: r.cfg.factory})
			r.probeBatch(op, root, side, plain)
			side.Close()
		}
		root.end()
		due = time.Now()
	}
	if err := r.endMeasure(); err != nil {
		return err
	}
	r.memoHit = medianOf(memo)
	s, err := startSimserved(r.cfg.factory)
	if err != nil {
		return err
	}
	r.dseBaseCheck(s.url())
	s.close()
	return nil
}

// checkCell checks one batch line: the cell ran and answered spec.
func (r *runner) checkCell(what string, spec svc.JobSpec, c svc.BatchResult) {
	if c.State != svc.Done || c.Result == nil {
		r.chk.fail("%s %d (%s/%s): state %s, error %q", what, c.Index, spec.Machine, spec.Kernel, c.State, c.Error)
		return
	}
	r.chk.simulated(what, spec, *c.Result)
	r.jobTimes(c.Job)
}

// apiSlot is one planned api-mix request.
type apiSlot struct {
	kind string // hit, estimate, cold, read
	spec svc.JobSpec
	// plain is the spec as the checker knows it (paper cells without
	// their seeded spelling).
	plain svc.JobSpec
}

func (s apiSlot) what() string {
	if s.kind == "hit" {
		return "api-mix memo hit"
	}
	return "api-mix cold cell"
}

// planAPI draws the whole arrival schedule up front from the seed:
// ~70% memo-hit repeats of the paper cells, ~15% estimates (half paper
// cells, half fresh tiny cells), ~10% cold tiny cells, ~5% reads.
func (r *runner) planAPI(n int) []apiSlot {
	plain := paperSpecs()
	slots := make([]apiSlot, n)
	for i := range slots {
		u := r.rng.Float64()
		p := plain[r.rng.Intn(len(plain))]
		switch {
		case u < 0.70:
			slots[i] = apiSlot{kind: "hit", spec: spellPaper(p, r.rng), plain: p}
		case u < 0.775:
			slots[i] = apiSlot{kind: "estimate", spec: spellPaper(p, r.rng), plain: p}
		case u < 0.85:
			v := r.vars.next()
			slots[i] = apiSlot{kind: "estimate", spec: v, plain: v}
		case u < 0.95:
			v := r.vars.next()
			slots[i] = apiSlot{kind: "cold", spec: v, plain: v}
		default:
			slots[i] = apiSlot{kind: "read"}
		}
	}
	return slots
}

// apiMix runs an open loop at apiRate against one memory-only
// simserved whose memo holds the 15 paper cells.
func apiMix(r *runner) error {
	r.mainClass, r.sideClass = "job", "read"
	r.client = newClient(apiSenders)
	var s *simserved
	var ids idPool
	for i := 0; i < 3; i++ {
		if s != nil {
			s.close()
		}
		if err := r.timeSetup(func() (err error) {
			s, err = startSimserved(r.cfg.factory)
			if err != nil {
				return err
			}
			if err := waitReady(r.ctx, r.hc(), s.url()); err != nil {
				return err
			}
			cells, _, err := postBatch(r.ctx, r.hc(), s.url(), paperSpecs())
			if err != nil {
				return fmt.Errorf("warming the memo: %w", err)
			}
			for _, c := range cells {
				r.checkCell("api-mix warm-up", paperSpecs()[c.Index], c)
			}
			if i == 2 {
				for _, c := range cells {
					if c.Result != nil {
						ids.add(c.ID, c.Result.Cycles)
					}
				}
			}
			return nil
		}); err != nil {
			if s != nil {
				s.close()
			}
			return err
		}
	}
	defer s.close()

	n := int(apiRate * r.window().Seconds())
	slots := r.planAPI(n)
	readRNG := rand.New(rand.NewSource(r.cfg.seed + 104729))
	var readMu sync.Mutex
	var next atomic.Int64
	var answered atomic.Int64
	var wg sync.WaitGroup
	r.beginMeasure()
	for c := 0; c < apiSenders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := r.start.Add(time.Duration(float64(i) / apiRate * float64(time.Second)))
				sleepUntil(due)
				r.late(due)
				traced := r.tracedAt(due, time.Second)
				slot := slots[i]
				op := r.tr.newOp()
				root := r.tr.begin(op, nil, "op."+slot.kind)
				if slot.kind == "read" {
					readMu.Lock()
					id, want, ok := ids.pick(readRNG)
					readMu.Unlock()
					hs := r.tr.begin(op, root, "http.get_job")
					err := errors.New("no answered job to read")
					if ok {
						_, err = r.read(s.url(), id, want)
					}
					hs.end()
					r.measure.record("read", err)
					if err == nil {
						r.opDone("read", due, traced)
					}
					root.end()
					continue
				}
				query := "wait=1"
				if slot.kind == "estimate" {
					query = "tier=estimate"
				}
				sent := time.Now()
				hs := r.tr.begin(op, root, "http.post_job")
				jc, err := postJob(r.ctx, r.hc(), s.url(), slot.spec, query)
				hs.end()
				rt := time.Since(sent)
				r.measure.record(slot.kind, err)
				if err != nil {
					root.end()
					continue
				}
				r.opDone("job", due, traced)
				answered.Add(1)
				r.resultBytes.add(float64(jc.bytes))
				switch slot.kind {
				case "estimate":
					r.chk.estimate("api-mix estimate", slot.plain, *jc.job.Result)
				default:
					r.chk.simulated(slot.what(), slot.plain, *jc.job.Result)
					r.jobTimes(jc.job)
					ids.add(jc.job.ID, jc.job.Result.Cycles)
				}
				if traced {
					switch slot.kind {
					case "hit":
						if d, err := r.probeJob(op, root, s.svc, slot.spec); err == nil {
							r.httpUS.add(float64(rt-d) / 1e3)
						}
					case "cold":
						_, _ = r.probeJob(op, root, s.svc, r.vars.next()) // a failure shows as a missing span
					case "estimate":
						r.probeEstimate(op, root, s.svc, slot.spec)
					}
				}
				root.end()
			}
		}()
	}
	wg.Wait()
	r.cells = int(answered.Load())
	if err := r.endMeasure(); err != nil {
		return err
	}
	r.memoHit = s.svc.Pool().MemoHitRate()
	r.reuseStats(s.svc.Metrics().Snapshot())
	r.dseBaseCheck(s.url())
	return nil
}

// clusterDurable runs two closed-loop clients against simgate in front
// of two durable shards (fsync on every commit). Each op is a batch of
// fresh tiny cells, a small design-space sweep whose points all need
// non-default machines, or a read of an earlier answer.
func clusterDurable(r *runner) error {
	r.mainClass, r.sideClass = "batch", "read"
	r.client = newClient(clusterClient)
	var c *clusterStack
	for i := 0; i < 15; i++ {
		if c != nil {
			c.close()
			c.removeDirs()
		}
		if err := r.timeSetup(func() (err error) {
			c, err = startCluster(r.cfg.factory)
			if err != nil {
				return err
			}
			return waitReady(r.ctx, r.hc(), c.url())
		}); err != nil {
			if c != nil {
				c.close()
				c.removeDirs()
			}
			return err
		}
	}
	defer func() {
		c.close()
		c.removeDirs()
	}()

	var ids idPool
	var cells atomic.Int64
	var wg sync.WaitGroup
	r.beginMeasure()
	deadline := r.start.Add(r.window())
	for cl := 0; cl < clusterClient; cl++ {
		rng := rand.New(rand.NewSource(r.cfg.seed*31 + int64(cl)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for time.Now().Before(deadline) {
				u := rng.Float64()
				id, want, haveID := ids.pick(rng)
				t0 := r.late(due)
				traced := r.tracedAt(t0, time.Second)
				switch {
				case u < 0.60 || !haveID:
					cells.Add(int64(r.clusterBatchOp(c, &ids, t0, traced)))
				case u < 0.75:
					cells.Add(int64(r.clusterDSEOp(c, t0, traced)))
				default:
					r.clusterReadOp(c, id, want, t0, traced)
				}
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	r.cells = int(cells.Load())
	if err := r.endMeasure(); err != nil {
		return err
	}
	r.addJournalCells(r.cells)
	r.serviceState(c)
	r.clusterState(c)
	r.dseBaseCheck(c.url())
	return nil
}

func (r *runner) clusterBatchOp(c *clusterStack, ids *idPool, t0 time.Time, traced bool) int {
	specs := make([]svc.JobSpec, clusterBatch)
	for i := range specs {
		specs[i] = r.vars.next()
	}
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "op.batch")
	defer root.end()
	hs := r.tr.begin(op, root, "http.batch")
	cells, sc, err := postBatch(r.ctx, r.hc(), c.url(), specs)
	hs.end()
	r.measure.record("batch", err)
	if err != nil {
		return 0
	}
	r.opDone("batch", t0, traced)
	r.resultBytes.add(float64(sc.bytes) / float64(len(cells)+1))
	done := 0
	for _, cell := range cells {
		r.checkCell("cluster batch cell", specs[cell.Index], cell)
		if cell.Result != nil {
			ids.add(cell.ID, cell.Result.Cycles)
			done++
		}
	}
	if traced {
		more := make([]svc.JobSpec, clusterBatch)
		for i := range more {
			more[i] = r.vars.next()
		}
		r.probeBatch(op, root, c.shards[0].svc, more)
		r.addJournalCells(len(more))
	}
	return done
}

func (r *runner) clusterDSEOp(c *clusterStack, t0 time.Time, traced bool) int {
	req := r.vars.dseRequest()
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "op.dse")
	defer root.end()
	hs := r.tr.begin(op, root, "http.dse")
	points, _, err := postDSE(r.ctx, r.hc(), c.url(), req)
	hs.end()
	if err == nil && len(points) != len(req.Axes[0].Values) {
		err = fmt.Errorf("dse answered %d of %d points", len(points), len(req.Axes[0].Values))
	}
	r.measure.record("dse", err)
	if err != nil {
		return 0
	}
	r.opDone("dse", t0, traced)
	for _, p := range points {
		if p.State != svc.Done {
			r.chk.fail("dse point %d (%s): state %s, error %q", p.Index, p.Label, p.State, p.Error)
			continue
		}
		spec := req.Base
		spec.Config = p.Config
		r.chk.cycles("cluster dse point "+p.Label, spec, p.Cycles)
	}
	if traced {
		r.probeDSEExpand(op, root, req)
	}
	return len(points)
}

func (r *runner) clusterReadOp(c *clusterStack, id string, want uint64, t0 time.Time, traced bool) {
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "op.read")
	defer root.end()
	_, err := r.read(c.url(), id, want)
	r.measure.record("read", err)
	if err != nil {
		return
	}
	r.opDone("read", t0, traced)
	if traced {
		r.hopProbe(c, op, root, id, want)
	}
}

// hopProbe reads id through the gateway and straight from its shard;
// the difference is the gateway hop.
func (r *runner) hopProbe(c *clusterStack, op uint64, parent *active, id string, want uint64) {
	sh := c.shardFor(id)
	if sh == nil {
		r.verify.record("hop probe", fmt.Errorf("no shard issued %s", id))
		return
	}
	gs := r.tr.begin(op, parent, "http.gateway_get_job")
	start := time.Now()
	_, err := r.read(c.url(), id, want)
	gw := time.Since(start)
	gs.end()
	r.verify.record("hop probe", err)
	if err != nil {
		return
	}
	ds := r.tr.begin(op, parent, "http.shard_get_job")
	start = time.Now()
	_, err = r.read(sh.url(), id, want)
	direct := time.Since(start)
	ds.end()
	r.verify.record("hop probe", err)
	if err == nil {
		r.hopUS.add(float64(gw-direct) / 1e3)
	}
}

// serviceState records what the shards' services did: memo hit rates
// and machine reuse.
func (r *runner) serviceState(c *clusterStack) {
	var memo []float64
	for _, s := range c.shards {
		memo = append(memo, s.svc.Pool().MemoHitRate())
		r.reuseStats(s.svc.Metrics().Snapshot())
	}
	r.memoHit = medianOf(memo)
}

// clusterState records what the cluster layers did: gateway hedges and
// reroutes, and the record sizes the shards journaled.
func (r *runner) clusterState(c *clusterStack) {
	for _, s := range c.shards {
		rec, err := journal.Export(s.dir)
		r.verify.record("journal-export", err)
		if err != nil {
			continue
		}
		for _, p := range rec.Records {
			r.journalSizes = append(r.journalSizes, len(p))
		}
	}
	gs := c.gw.Metrics().Snapshot()
	r.hedges, r.hedgeWins, r.reroutes = gs.Hedges, gs.HedgeWins, gs.Reroutes
}
