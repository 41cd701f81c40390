package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/machines"
	"sigkern/internal/roofline"
	"sigkern/internal/svc"
)

// probeJob times one in-process job through the service's public
// calls — JobSpec.Normalize+Hash, Service.Submit, Service.Wait — and
// returns the Submit+Wait time. The Wait span is named for how the job
// completed: svc.wait_hit (memo) or svc.wait_exec (simulated).
func (r *runner) probeJob(op uint64, parent *active, s *svc.Service, spec svc.JobSpec) (time.Duration, error) {
	var err error
	r.tr.timed(op, parent, "svc.normalize_hash", func() {
		var norm svc.JobSpec
		if norm, err = spec.Normalize(); err == nil {
			_, err = norm.Hash()
		}
	})
	if err != nil {
		return 0, err
	}
	var job svc.Job
	sub := r.tr.timed(op, parent, "svc.submit", func() { job, err = s.Submit(spec) })
	if err != nil {
		return 0, err
	}
	ws := r.tr.begin(op, parent, "svc.wait")
	start := time.Now()
	final, err := s.Wait(r.ctx, job.ID)
	wait := time.Since(start)
	if ws != nil {
		ws.s.Name = "svc.wait_exec"
		if final.FromCache {
			ws.s.Name = "svc.wait_hit"
		}
		ws.end()
	}
	if err != nil {
		return 0, err
	}
	if final.State != svc.Done {
		return 0, fmt.Errorf("in-process job %s: state %s, error %q", final.ID, final.State, final.Error)
	}
	return sub + wait, nil
}

// probeEstimate times Service.Estimate and the roofline.ForJob call
// under it.
func (r *runner) probeEstimate(op uint64, parent *active, s *svc.Service, spec svc.JobSpec) {
	r.tr.timed(op, parent, "svc.estimate", func() { _, _ = s.Estimate(spec) }) // the HTTP answer for this spec was checked
	norm, err := spec.Normalize()
	if err != nil {
		return
	}
	r.tr.timed(op, parent, "roofline.for_job", func() { _, _ = roofline.ForJob(norm.Machine, norm.Kernel, *norm.Workload) })
}

// probeBatch times Service.SubmitBatch to the first and the last result.
func (r *runner) probeBatch(op uint64, parent *active, s *svc.Service, specs []svc.JobSpec) {
	t0 := time.Now()
	whole := r.tr.begin(op, parent, "svc.batch")
	defer whole.end()
	var run *svc.BatchRun
	var err error
	r.tr.timed(op, whole, "svc.submit_batch", func() { run, err = s.SubmitBatch(r.ctx, specs, svc.BatchOptions{}) })
	if err != nil {
		r.verify.record("in-process batch", err)
		return
	}
	first := r.tr.begin(op, whole, "svc.batch_wait_first")
	var tFirst time.Time
	n := 0
	for br := range run.Results() {
		if tFirst.IsZero() {
			tFirst = time.Now()
			first.end()
		}
		if br.State == svc.Done {
			n++
		}
	}
	if n != len(specs) {
		r.verify.record("in-process batch", fmt.Errorf("%d of %d cells done", n, len(specs)))
		return
	}
	r.batchFirstMS.addDur(tFirst.Sub(t0), time.Millisecond)
	r.batchMS.addDur(time.Since(t0), time.Millisecond)
}

func (r *runner) probeDSEExpand(op uint64, parent *active, req svc.DSERequest) {
	r.tr.timed(op, parent, "svc.dse_expand", func() { _, _ = req.Expand() }) // the same request was answered over HTTP
}

// configOverrides are single-machine config sets that differ from the
// paper defaults, for timing ConfigSet.Machine.
var configOverrides = map[string]string{
	"PPC":     `{"ppc":{"IssueWidth":3}}`,
	"AltiVec": `{"ppc":{"IssueWidth":3}}`,
	"VIRAM":   `{"viram":{"MVL":32}}`,
	"Imagine": `{"imagine":{"Clusters":4}}`,
	"Raw":     `{"raw":{"Mesh":{"Width":2,"Height":2}}}`,
}

// layerProbes is the traced run's second half: it times calls into
// the layers no workload op exercised in this run (on small fixtures
// of their own), and the layers every run reports the same way — the
// simulators on the 15 paper cells, machine construction, and the
// journal replaying the record sizes the durable shards wrote.
func (r *runner) layerProbes() error {
	r.printf("phase probes: timing layer calls")
	if err := r.fillServiceProbes(); err != nil {
		return err
	}
	if len(r.journalSizes) == 0 || r.hopUS.n() == 0 {
		if err := r.clusterFixture(); err != nil {
			return err
		}
	}
	r.machineProbes()
	r.simProbes()
	return r.journalProbes()
}

// fillServiceProbes times the svc calls a workload did not make, on a
// fresh memory-only simserved of its own.
func (r *runner) fillServiceProbes() error {
	spans := r.tr.snapshot()
	have := map[string]bool{}
	for _, s := range spans {
		have[s.Name] = true
	}
	s, err := startSimserved(r.cfg.factory)
	if err != nil {
		return err
	}
	defer s.close()
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "probe.service")
	defer root.end()
	for i := 0; i < 20 && !(have["svc.wait_hit"] && have["svc.wait_exec"] && r.httpUS.n() > 0); i++ {
		v := r.vars.next()
		if _, err := r.probeJob(op, root, s.svc, v); err != nil {
			r.verify.record("probe job", err)
			continue
		}
		sent := time.Now()
		jc, err := postJob(r.ctx, r.hc(), s.url(), v, "wait=1")
		rt := time.Since(sent)
		r.verify.record("probe job", err)
		if err != nil {
			continue
		}
		r.resultBytes.add(float64(jc.bytes))
		if d, err := r.probeJob(op, root, s.svc, v); err == nil {
			r.httpUS.add(float64(rt-d) / 1e3)
		}
	}
	if !have["svc.estimate"] {
		for _, spec := range paperSpecs() {
			r.probeEstimate(op, root, s.svc, spec)
		}
	}
	if r.batchMS.n() == 0 {
		for i := 0; i < 5; i++ {
			specs := make([]svc.JobSpec, clusterBatch)
			for j := range specs {
				specs[j] = r.vars.next()
			}
			r.probeBatch(op, root, s.svc, specs)
		}
	}
	if !have["svc.dse_expand"] {
		for i := 0; i < 20; i++ {
			r.probeDSEExpand(op, root, r.vars.dseRequest())
		}
	}
	return nil
}

// clusterFixture gives runs without a cluster workload the journal
// record sizes and gateway hop of a small cluster of their own.
func (r *runner) clusterFixture() error {
	c, err := startCluster(r.cfg.factory)
	if err != nil {
		return err
	}
	defer func() {
		c.close()
		c.removeDirs()
	}()
	if err := waitReady(r.ctx, r.hc(), c.url()); err != nil {
		return err
	}
	var ids idPool
	for i := 0; i < 4; i++ {
		specs := make([]svc.JobSpec, clusterBatch)
		for j := range specs {
			specs[j] = r.vars.next()
		}
		cells, _, err := postBatch(r.ctx, r.hc(), c.url(), specs)
		r.verify.record("fixture batch", err)
		if err != nil {
			continue
		}
		for _, cell := range cells {
			if cell.State != svc.Done || cell.Result == nil {
				r.chk.fail("fixture batch cell %d: state %s, error %q", cell.Index, cell.State, cell.Error)
				continue
			}
			r.chk.simulated("fixture batch cell", specs[cell.Index], *cell.Result)
			ids.add(cell.ID, cell.Result.Cycles)
		}
		r.addJournalCells(len(cells))
	}
	for i := 0; i < 40; i++ {
		id, want, ok := ids.pick(r.rng)
		if !ok {
			break
		}
		r.hopProbe(c, r.tr.newOp(), nil, id, want)
	}
	r.clusterState(c)
	return nil
}

// machineProbes times machine construction: machines.ByName (paper
// defaults) and ConfigSet.Machine (a per-spec override, the path
// design-space points take).
func (r *runner) machineProbes() {
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "probe.machines")
	defer root.end()
	for _, name := range paperMachines {
		var cs machines.ConfigSet
		if err := cs.UnmarshalJSON([]byte(configOverrides[name])); err != nil {
			r.verify.record("config override", err)
			continue
		}
		for i := 0; i < 50; i++ {
			r.tr.timed(op, root, "machines.by_name."+name, func() { _, _ = machines.ByName(name) })
			r.tr.timed(op, root, "machines.config."+name, func() { _, _ = cs.Machine(name) })
		}
	}
}

// simProbes runs each Table 3 cell once on a fresh paper machine.
func (r *runner) simProbes() {
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "probe.sim")
	defer root.end()
	for _, spec := range paperSpecs() {
		m, err := machines.ByName(spec.Machine)
		if err != nil {
			r.verify.record("sim probe", err)
			continue
		}
		var res core.Result
		d := r.tr.timed(op, root, "sim."+spec.Machine+"."+string(spec.Kernel), func() {
			res, err = core.Run(m, spec.Kernel, core.PaperWorkload())
		})
		r.verify.record("sim probe", err)
		if err != nil {
			continue
		}
		p := pinned[cellKey(spec.Machine, spec.Kernel)]
		if res.Cycles != p.Cycles {
			r.chk.fail("in-process %s/%s: %d cycles, Table 3 has %d", spec.Machine, spec.Kernel, res.Cycles, p.Cycles)
		}
		r.simNS[spec.Machine] += float64(d.Nanoseconds())
		r.simCycles[spec.Machine] += float64(res.Cycles)
	}
}

// journalProbes replays the record sizes the durable shards wrote into
// a fresh fsync-always journal: one Append per record, AppendBatch in
// groups the size of a cluster batch, and AppendDefer+Sync pairs.
func (r *runner) journalProbes() error {
	dir, err := os.MkdirTemp("", "httpbench-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	defer j.Close()
	sizes := r.journalSizes
	if len(sizes) > 400 {
		sizes = sizes[:400]
	}
	op := r.tr.newOp()
	root := r.tr.begin(op, nil, "probe.journal")
	defer root.end()
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return b
	}
	for _, n := range sizes {
		p := payload(n)
		r.tr.timed(op, root, "journal.append", func() { err = j.Append(p) })
		if err != nil {
			return err
		}
	}
	for i := 0; i+clusterBatch <= len(sizes); i += clusterBatch {
		group := make([][]byte, clusterBatch)
		for k := range group {
			group[k] = payload(sizes[i+k])
		}
		r.tr.timed(op, root, "journal.append_batch", func() { err = j.AppendBatch(group) })
		if err != nil {
			return err
		}
	}
	for i, n := range sizes {
		if i >= 100 {
			break
		}
		if err := j.AppendDefer(payload(n)); err != nil {
			return err
		}
		r.tr.timed(op, root, "journal.sync", func() { err = j.Sync() })
		if err != nil {
			return err
		}
	}
	return nil
}

// endToEnd is the untraced run's metric set. What op_* and side_*
// measure depends on the workload (README.md): paper-grid's op is one
// grid and its side series the time to the first streamed cell;
// api-mix's op is one job request and its side series a job read;
// cluster-durable's op is one batch and its side series a job read.
func (r *runner) endToEnd() map[string]metric {
	op := r.series(r.e2e, r.mainClass).summary()
	side := r.series(r.e2e, r.sideClass).summary()
	st := summarize(sortedCopy(r.setupS))
	r.printf("e2e setup_s %.6f s (median of %d set-ups; p%.3g %.6f s)", st.P50, st.N, st.TailPct, st.Tail)
	r.printf("e2e rss_peak_mb %.1f MB (VmHWM); mem_mb %.1f MB", r.rssMB, r.memMB())
	all := r.series(r.e2e, r.mainClass).sorted()
	if n := len(all); n > 0 {
		r.printf("e2e %s percentiles: p90 %.4f p95 %.4f p99 %.4f ms; mean %.4f ms", r.mainClass, all[n*90/100], all[n*95/100], all[n*99/100], op.Mean)
	}
	r.printf("e2e error_ratio %.4f (%d failed or refused of %d attempted)", ratio(float64(r.measure.failed), float64(r.measure.sent)), r.measure.failed, r.measure.sent)
	switch r.cfg.workload {
	case "paper-grid":
		g := r.series(r.e2e, "grid").summary()
		r.printf("e2e grid_s %.4f s; p%.3g %.4f s (n=%d)", g.P50/1e3, g.TailPct, g.Tail/1e3, g.N)
		r.printf("e2e first_cell_ms %s", side)
	case "api-mix":
		r.printf("e2e job_p50_ms %.4f ms, job_tail_ms %.4f ms at p%.4g (n=%d)", op.P50, op.Tail, op.TailPct, op.N)
		r.printf("e2e read_p50_ms %.4f ms, read_tail_ms %.4f ms at p%.4g (n=%d)", side.P50, side.Tail, side.TailPct, side.N)
	case "cluster-durable":
		d := r.series(r.e2e, "dse").summary()
		r.printf("e2e batch_p50_ms %.4f ms, batch_tail_ms %.4f ms at p%.4g (n=%d)", op.P50, op.Tail, op.TailPct, op.N)
		r.printf("e2e read_p50_ms %.4f ms, read_tail_ms %.4f ms at p%.4g (n=%d)", side.P50, side.Tail, side.TailPct, side.N)
		r.printf("e2e dse_p50_ms %.4f ms (n=%d)", d.P50, d.N)
	}
	cps := float64(r.cells) / r.elapsed.Seconds()
	r.printf("e2e cells_per_s %.2f (%d cells in %.2f s)", cps, r.cells, r.elapsed.Seconds())
	cpuPerCell := ratio(float64(r.cpu.Microseconds()), float64(r.cells))
	r.printf("e2e cpu_us_per_cell %.2f (%.2f CPU-seconds over %d cells)", cpuPerCell, r.cpu.Seconds(), r.cells)
	return map[string]metric{
		"setup_s":     {medianOf(r.setupS), "s"},
		"mem_mb":      {r.memMB(), "MB"},
		"op_p50_ms":   {op.P50, "ms"},
		"side_p50_ms": {side.P50, "ms"},
		"cells_per_s": {cps, "1/s"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics is the traced run's metric set.
func (r *runner) layerMetrics() map[string]metric {
	spans := r.tr.snapshot()
	if r.cfg.traceOut != "" {
		if err := writeSpans(r.cfg.traceOut, spans); err != nil {
			r.printf("writing spans: %v", err)
		} else {
			r.printf("%d spans written to %s", len(spans), r.cfg.traceOut)
		}
	}
	printSpanTable(r.cfg.report, summarizeSpans(spans))
	m := map[string]metric{}
	spanUS := func(metricName, spanName string) {
		v, _ := medianSpanUS(spans, spanName)
		m[metricName] = metric{v, "us"}
	}
	spanUS("svc.normalize_hash_us", "svc.normalize_hash")
	spanUS("svc.submit_us", "svc.submit")
	spanUS("svc.wait_hit_us", "svc.wait_hit")
	spanUS("svc.wait_exec_us", "svc.wait_exec")
	spanUS("svc.estimate_us", "svc.estimate")
	spanUS("roofline.for_job_us", "roofline.for_job")
	spanUS("svc.dse_expand_us", "svc.dse_expand")
	spanUS("journal.append_us", "journal.append")
	spanUS("journal.append_batch_us", "journal.append_batch")
	spanUS("journal.sync_us", "journal.sync")
	med := func(s *samples) float64 { return median(s.sorted()) }
	m["svc.queue_wait_ms"] = metric{med(&r.queueWaitMS), "ms"}
	m["svc.exec_ms"] = metric{med(&r.execMS), "ms"}
	m["svc.batch_first_ms"] = metric{med(&r.batchFirstMS), "ms"}
	m["svc.batch_ms"] = metric{med(&r.batchMS), "ms"}
	m["svc.http_us"] = metric{med(&r.httpUS), "us"}
	m["svc.result_bytes"] = metric{med(&r.resultBytes), "bytes"}
	m["cluster.hop_us"] = metric{med(&r.hopUS), "us"}
	m["svc.reuse_check_share"] = metric{ratio(float64(r.reuse.checks), float64(r.reuse.cells)), "ratio"}
	m["svc.machine_reuse_ratio"] = metric{ratio(float64(r.reuse.reuses), float64(r.reuse.reuses+r.reuse.builds)), "ratio"}
	m["cache.memo_hit_ratio"] = metric{r.memoHit, "ratio"}
	m["svc.breakdown_lost"] = metric{float64(r.chk.lost), "count"}
	m["svc.breakdown_lost_ratio"] = metric{ratio(float64(r.chk.lost), float64(r.chk.compared)), "ratio"}
	var bytes float64
	for _, n := range r.journalSizes {
		bytes += float64(n)
	}
	cells := float64(r.journalCells.Load())
	m["journal.records_per_cell"] = metric{ratio(float64(len(r.journalSizes)), cells), "count"}
	m["journal.bytes_per_cell"] = metric{ratio(bytes, cells), "bytes"}
	m["cluster.hedge_win_ratio"] = metric{ratio(float64(r.hedgeWins), float64(r.hedges)), "ratio"}
	m["cluster.reroutes"] = metric{float64(r.reroutes), "count"}
	for _, name := range paperMachines {
		v, _ := medianSpanUS(spans, "machines.by_name."+name)
		m["machines.build_us."+name] = metric{v, "us"}
		v, _ = medianSpanUS(spans, "machines.config."+name)
		m["machines.config_build_us."+name] = metric{v, "us"}
		for _, k := range core.Kernels() {
			v, _ := medianSpanUS(spans, "sim."+name+"."+string(k))
			m["sim."+name+"."+string(k)+"_ms"] = metric{v / 1e3, "ms"}
		}
		m["sim."+name+".ns_per_cycle"] = metric{ratio(r.simNS[name], r.simCycles[name]), "ns"}
	}
	late := r.measure.late.summary()
	m["load.sent"] = metric{float64(r.measure.sent), "count"}
	m["load.failed"] = metric{float64(r.measure.failed), "count"}
	m["load.error_ratio"] = metric{ratio(float64(r.measure.failed), float64(r.measure.sent)), "ratio"}
	m["load.late_p50_ms"] = metric{late.P50, "ms"}
	m["load.late_tail_ms"] = metric{late.Tail, "ms"}
	plain := r.series(r.e2e, r.mainClass).summary()
	traced := r.series(r.tracedOps, r.mainClass).summary()
	overhead := 100 * (ratio(traced.P50, plain.P50) - 1)
	if plain.N == 0 || traced.N == 0 {
		overhead = 0
	}
	r.printf("tracing overhead: %s p50 %.4f ms traced (n=%d) vs %.4f ms untraced (n=%d): %+.1f%%",
		r.mainClass, traced.P50, traced.N, plain.P50, plain.N, overhead)
	m["trace.overhead_pct"] = metric{overhead, "%"}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.printf("layer %-34s %14.4f %s", k, m[k].Value, m[k].Unit)
	}
	return m
}
