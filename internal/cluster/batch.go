package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"sigkern/internal/svc"
)

// batchCell is one routed batch cell: the client-visible index, the
// normalized spec, and its canonical hash (the routing key).
type batchCell struct {
	index int
	spec  svc.JobSpec
	hash  string
}

// handleBatch serves POST /v1/batch through the shared fan-out.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.serveBatch(w, r, svc.ReadBatchBody)
}

// handleDSE serves POST /v1/dse: the exploration is expanded exactly as
// a shard would expand it and its design points ride the batch fan-out
// as ordinary cells; the shared post-pass renders each as a DSEPoint
// and computes the Pareto frontier over every completed point.
func (g *Gateway) handleDSE(w http.ResponseWriter, r *http.Request) {
	g.serveBatch(w, r, svc.ReadDSEBody)
}

// serveBatch splits one batch group across the ring by each cell's
// spec hash and merges the shards' NDJSON streams back into a single
// response. The body is parsed and normalized by the shards' own
// parser, so a bad body is refused here with the status and error
// shape a shard would answer, before any shard sees a byte. Each shard
// group is one upstream POST /v1/batch carrying explicit per-line
// index fields, so a cell's index survives the split; lines are
// relayed to the client as they arrive, serialized through one writer.
// A failed sub-batch reroutes its unanswered cells to the group's ring
// successors; cells no shard could run come back as synthesized failed
// lines, never a dropped index. Per-shard summary lines are swallowed
// and replaced with one merged summary.
func (g *Gateway) serveBatch(w http.ResponseWriter, r *http.Request, parse func(http.ResponseWriter, *http.Request) (*svc.BatchRequest, error)) {
	if !g.guardConfigConsensus(w) {
		return
	}
	req, err := parse(w, r)
	var norms []svc.JobSpec
	var hashes []string
	if err == nil {
		norms, hashes, err = req.Normalize()
	}
	if err != nil {
		svc.WriteRequestError(w, err)
		return
	}
	g.metrics.proxiedInc()
	groups := make(map[string][]batchCell)
	for i, norm := range norms {
		owner := g.routeOrder(hashes[i])[0]
		groups[owner] = append(groups[owner], batchCell{index: req.Indices[i], spec: norm, hash: hashes[i]})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(req.CountHeader(), strconv.Itoa(len(norms)))
	w.WriteHeader(http.StatusOK)
	mw := &mergeWriter{w: w, req: req}
	if fl, ok := w.(http.Flusher); ok {
		mw.fl = fl
		// Headers out before the first shard answers, so streaming
		// clients can start reading immediately.
		fl.Flush()
	}
	var wg sync.WaitGroup
	for shard, group := range groups {
		wg.Add(1)
		go func(shard string, group []batchCell) {
			defer wg.Done()
			g.streamSubBatch(r, shard, group, mw)
		}(shard, group)
	}
	wg.Wait()
	sum, _ := json.Marshal(req.Summary())
	mw.writeLine(sum)
}

// guardConfigConsensus refuses a write when the ready shards disagree
// on their hardware config-set hash. Routing a job into a split-config
// cluster is a wrong-result hazard, not an availability problem: both
// shards would answer 200, with different cycle counts for the same
// canonical spec hash, and reroutes/rebalances would mix them in the
// same memo space. 503 until the operator converges the fleet.
func (g *Gateway) guardConfigConsensus(w http.ResponseWriter) bool {
	if _, ok := g.prober.ConfigConsensus(); !ok {
		g.metrics.configMismatchInc()
		w.Header().Set("Retry-After", "1")
		writeGatewayError(w, http.StatusServiceUnavailable,
			"cluster: ready shards report different hardware config-set hashes; refusing to route until they agree")
		return false
	}
	return true
}

// streamSubBatch drives one shard group to completion: try each
// candidate in ring order, resending only the cells no attempt has
// answered yet, and synthesize failed lines for whatever is left when
// the candidates run out.
func (g *Gateway) streamSubBatch(r *http.Request, owner string, group []batchCell, mw *mergeWriter) {
	order := g.routeOrder(group[0].hash)
	answered := make(map[int]bool)
	path := "/v1/batch"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	lastErr := "no shard reachable for batch"
	for _, name := range order {
		var pend []batchCell
		for _, c := range group {
			if !answered[c.index] {
				pend = append(pend, c)
			}
		}
		if len(pend) == 0 {
			return
		}
		br := g.breakers.Get(name)
		if err := br.Allow(); err != nil {
			g.metrics.breakerRejectedInc()
			lastErr = err.Error()
			continue
		}
		ok, errMsg := g.streamAttempt(r, name, path, pend, answered, mw)
		br.Record(ok)
		if ok {
			if name != owner {
				g.metrics.rerouteInc()
			}
			return
		}
		lastErr = errMsg
	}
	for _, c := range group {
		if !answered[c.index] {
			answered[c.index] = true
			mw.writeFailedCell(c, lastErr)
		}
	}
}

// streamAttempt POSTs one sub-batch to one shard and relays its NDJSON
// stream line by line, marking each answered index. It reports ok=false
// on transport errors and 5xx (the caller reroutes the unanswered
// remainder); a 4xx refusal fails the pending cells in place — a
// successor would refuse the same specs — and still counts as the shard
// working.
func (g *Gateway) streamAttempt(r *http.Request, shard, path string, pend []batchCell, answered map[int]bool, mw *mergeWriter) (bool, string) {
	s, ok := g.shards[shard]
	if !ok {
		return false, fmt.Sprintf("unknown shard %q", shard)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range pend {
		_ = enc.Encode(struct {
			svc.JobSpec
			Index int `json:"index"`
		}{c.spec, c.index})
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, s.URL+path, &buf)
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	for _, k := range []string{"X-Request-Id", "X-Deadline-Budget", "Accept"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.metrics.upstreamErrorInc()
		g.prober.ObserveFailure(shard, err)
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := fmt.Sprintf("shard %s: %s: %s", shard, resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode >= 500 {
			g.metrics.upstreamErrorInc()
			return false, msg
		}
		for _, c := range pend {
			answered[c.index] = true
			mw.writeFailedCell(c, msg)
		}
		return true, ""
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20) // grows from the small default; cell lines are ~1 KB
	for sc.Scan() {
		if index, ok := mw.relay(bytes.TrimSpace(sc.Bytes())); ok {
			answered[index] = true
		}
	}
	if err := sc.Err(); err != nil {
		g.metrics.upstreamErrorInc()
		g.prober.ObserveFailure(shard, err)
		return false, err.Error()
	}
	return true, ""
}

// mergeWriter serializes concurrent shard streams into one NDJSON
// response, flushing per line so the client sees cells as they
// complete, and runs every line through the request's post-pass under
// its lock.
type mergeWriter struct {
	mu  sync.Mutex
	w   io.Writer
	fl  http.Flusher
	req *svc.BatchRequest
}

// writeLine writes and flushes one NDJSON line; the caller holds mu or
// has joined every shard goroutine.
func (mw *mergeWriter) writeLine(line []byte) {
	_, _ = mw.w.Write(line)
	_, _ = mw.w.Write([]byte("\n"))
	if mw.fl != nil {
		mw.fl.Flush()
	}
}

// relay forwards one shard line (a cell, or the swallowed shard
// summary) and reports the cell index it answered.
func (mw *mergeWriter) relay(raw []byte) (int, bool) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	line, index, ok := mw.req.Relay(raw)
	if ok {
		mw.writeLine(line)
	}
	return index, ok
}

// writeFailedCell emits a synthesized failed line for a cell no shard
// could answer, preserving its index and spec so the client's
// bookkeeping stays complete.
func (mw *mergeWriter) writeFailedCell(c batchCell, msg string) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.writeLine(mw.req.Failure(c.index, c.spec, "cluster: "+msg))
}
