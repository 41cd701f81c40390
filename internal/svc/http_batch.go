package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/resilience"
)

// maxBatchBodyBytes bounds POST /v1/batch and /v1/dse bodies — generous
// enough for a full MaxBatchCells NDJSON batch with explicit workloads,
// small enough that a runaway client cannot buffer the process out of
// memory. Oversized bodies are 413, like oversized cell counts.
const maxBatchBodyBytes = 16 << 20

// ndjsonContentType marks newline-delimited JSON streams: the batch
// request body (one JobSpec per line) and the batch response (one
// completed cell per line, in completion order).
const ndjsonContentType = "application/x-ndjson"

// batchLine is one NDJSON request line: a JobSpec plus an optional
// explicit index echoed back in the cell's result line. Clients that
// omit it get the 0-based spec position; the cluster gateway sets it to
// preserve a client's numbering while splitting one batch across
// shards.
type batchLine struct {
	JobSpec
	Index *int `json:"index,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch response, after
// every cell line.
type BatchSummary struct {
	Done      bool `json:"done"`
	Cells     int  `json:"cells"`
	Failed    int  `json:"failed"`
	FromCache int  `json:"from_cache"`
}

// RequestError is a refused POST /v1/batch or /v1/dse request, in the
// one shape simserved and simgate both answer with: the HTTP status
// and, when the error names a line or design point, a structured
// ParamError body (a plain {"error"} body otherwise).
type RequestError struct {
	Status int
	Param  ParamError
}

func (e *RequestError) Error() string { return e.Param.Error }

// WriteRequestError answers a refused batch or exploration: a
// RequestError in its own status and shape, any other error through
// the service's usual status mapping.
func WriteRequestError(w http.ResponseWriter, err error) {
	var re *RequestError
	switch {
	case !errors.As(err, &re):
		writeError(w, err)
	case re.Param.Parameter == "":
		writeJSON(w, re.Status, map[string]string{"error": re.Param.Error})
	default:
		writeJSON(w, re.Status, re.Param)
	}
}

// BatchRequest is a parsed POST /v1/batch or /v1/dse body: the specs to
// admit as one batch group, the index each cell echoes on its result
// line, and the post-pass that turns completed cells into response
// lines and a summary. A design-space exploration is its expansion run
// as a batch, with each cell rendered as a DSEPoint and the summary
// carrying the Pareto frontier. Shard and gateway parse with the same
// code, so both refuse a bad body with the same RequestError. The
// post-pass methods are not safe for concurrent use.
type BatchRequest struct {
	specs []JobSpec
	// Indices holds each spec's client-visible index, echoed on its
	// result line: the NDJSON "index" field, else the spec's position.
	Indices []int
	// param and where name spec i in a 400: its 1-based NDJSON line
	// (or grid cell) for a batch, its expansion label for a DSE point.
	param string
	where []string
	want  string
	// designs is the exploration's expansion (nil for a plain batch),
	// indexed by cell index.
	designs  []DSEDesign
	norms    []JobSpec // set by Normalize, for Relay
	batch    BatchSummary
	dse      DSESummary
	frontier []DSEFrontierPoint
}

// ReadBatchBody parses a POST /v1/batch body. Content-Type
// application/json is the compact grid-expansion form (BatchGrid);
// anything else is NDJSON, one JobSpec per line with an optional
// "index" field. A malformed line is a 400 naming its physical line;
// more than MaxBatchCells cells or a body past the cap is 413.
func ReadBatchBody(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	req := &BatchRequest{param: "line", want: "a valid JobSpec per line"}
	add := func(spec JobSpec, index, line int) {
		req.specs = append(req.specs, spec)
		req.Indices = append(req.Indices, index)
		req.where = append(req.where, strconv.Itoa(line))
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var grid BatchGrid
		if err := decodeStrict(body, &grid); err != nil {
			return nil, bodyError("bad batch grid", err)
		}
		for i, spec := range grid.Expand() {
			add(spec, i, i+1)
		}
	} else {
		sc := bufio.NewScanner(body)
		// Start at the scanner's small default and grow per long line:
		// spec lines are ~1 KB, and a 64 KB buffer per request was most
		// of a small batch's garbage.
		sc.Buffer(nil, maxBodyBytes)
		line := 0
		for sc.Scan() {
			line++
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			var bl batchLine
			if err := decodeStrict(bytes.NewReader(raw), &bl); err != nil {
				return nil, lineError(line, err, "one JobSpec JSON object per line, optional \"index\" field")
			}
			idx := len(req.specs)
			if bl.Index != nil {
				idx = *bl.Index
			}
			add(bl.JobSpec, idx, line)
		}
		if err := sc.Err(); err != nil {
			if isBodyTooLarge(err) {
				return nil, bodyError("bad batch body", err)
			}
			return nil, lineError(line+1, err,
				"one JobSpec JSON object per line, at most "+strconv.Itoa(maxBodyBytes)+" bytes each")
		}
	}
	switch {
	case len(req.specs) == 0:
		return nil, &RequestError{http.StatusBadRequest, ParamError{Error: ErrBatchEmpty.Error()}}
	case len(req.specs) > MaxBatchCells:
		return nil, &RequestError{http.StatusRequestEntityTooLarge, ParamError{Error: ErrBatchTooLarge.Error()}}
	}
	return req, nil
}

// ReadDSEBody parses a POST /v1/dse body and expands it into its design
// points, one batch cell each, indexed by expansion position. An
// unknown axis is a 400 and an expansion past MaxDSEPoints a 413.
func ReadDSEBody(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	var dr DSERequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes), &dr); err != nil {
		return nil, bodyError("bad dse request", err)
	}
	designs, err := dr.Expand()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDSETooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, &RequestError{status, ParamError{Error: err.Error()}}
	}
	req := &BatchRequest{
		param:   "point",
		want:    "a valid base spec and config deltas",
		designs: designs,
		dse:     DSESummary{Points: len(designs), Machine: dr.Base.Machine},
	}
	for _, d := range designs {
		req.specs = append(req.specs, d.Spec)
		req.Indices = append(req.Indices, d.Index)
		req.where = append(req.where, d.Label)
	}
	return req, nil
}

// decodeStrict decodes one JSON value, refusing unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyError maps a body decode failure onto 413 past the size cap and
// 400 otherwise.
func bodyError(what string, err error) *RequestError {
	if isBodyTooLarge(err) {
		return &RequestError{http.StatusRequestEntityTooLarge,
			ParamError{Error: "request body exceeds " + strconv.Itoa(maxBatchBodyBytes) + " bytes"}}
	}
	return &RequestError{http.StatusBadRequest, ParamError{Error: what + ": " + err.Error()}}
}

// lineError is the 400 for an unparseable NDJSON line.
func lineError(line int, err error, want string) *RequestError {
	return &RequestError{http.StatusBadRequest, ParamError{
		Error:     fmt.Sprintf("bad batch line %d: %v", line, err),
		Parameter: "line",
		Value:     strconv.Itoa(line),
		Want:      []string{want},
	}}
}

// isBodyTooLarge reports whether err came from the MaxBytesReader cap.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// SpecError maps a *BatchSpecError onto the 400 naming the offending
// NDJSON line or design point; any other error passes through.
func (b *BatchRequest) SpecError(err error) error {
	var bse *BatchSpecError
	if !errors.As(err, &bse) {
		return err
	}
	where := b.where[bse.Index]
	return &RequestError{http.StatusBadRequest, ParamError{
		Error:     fmt.Sprintf("%s %s: %v", b.param, where, bse.Err),
		Parameter: b.param,
		Value:     where,
		Want:      []string{b.want},
	}}
}

// Normalize returns every spec's canonical form and hash — the
// gateway's routing keys — or the RequestError naming the first
// invalid spec, exactly as a shard would refuse it.
func (b *BatchRequest) Normalize() ([]JobSpec, []string, error) {
	norms, hashes, err := normalizeSpecs(b.specs)
	b.norms = norms
	return norms, hashes, b.SpecError(err)
}

// CountHeader names the response header that announces the cell count.
func (b *BatchRequest) CountHeader() string {
	if b.designs != nil {
		return "X-DSE-Points"
	}
	return "X-Batch-Cells"
}

// Line folds one completed cell into the summary and returns its
// response line: the cell itself for a batch, its DSEPoint for an
// exploration. br.Index is the cell's client-visible index.
func (b *BatchRequest) Line(br BatchResult) any {
	if b.designs == nil {
		b.tally(br.State, br.FromCache)
		return br
	}
	pt := DSEPoint{
		Index:     br.Index,
		Label:     b.designs[br.Index].Label,
		Config:    br.Spec.Config,
		State:     br.State,
		FromCache: br.FromCache,
		Error:     br.Error,
	}
	// The area proxy depends only on the point's (normalized) config,
	// so failed points still report where they sit on the area axis.
	cs := machines.ConfigSet{}
	if br.Spec.Config != nil {
		cs = *br.Spec.Config
	}
	if area, desc, err := cs.AreaProxy(br.Spec.Machine); err == nil {
		pt.Area, pt.AreaDesc = area, desc
		b.dse.AreaDesc = desc
	}
	if br.State == Done && br.Result != nil {
		pt.Cycles = br.Result.Cycles
		b.frontier = append(b.frontier, DSEFrontierPoint{Index: pt.Index, Label: pt.Label, Cycles: pt.Cycles, Area: pt.Area})
	} else {
		b.dse.Failed++
	}
	return pt
}

func (b *BatchRequest) tally(state State, fromCache bool) {
	if state == Failed {
		b.batch.Failed++
	}
	if fromCache {
		b.batch.FromCache++
	}
}

// Summary returns the stream's trailing line: the BatchSummary, or for
// an exploration the DSESummary with its Pareto frontier.
func (b *BatchRequest) Summary() any {
	if b.designs == nil {
		s := b.batch
		s.Done, s.Cells = true, len(b.specs)
		return s
	}
	s := b.dse
	s.Done, s.Frontier = true, ParetoFrontier(b.frontier)
	return s
}

// Relay folds one NDJSON line a shard streamed back for a sub-batch of
// this request and returns the line to forward with its cell index:
// batch cells pass through byte for byte, exploration cells become
// DSEPoint lines built from the normalized spec Normalize recorded for
// the index (an exploration's cell index is its position). ok is false
// for the shard's own summary (the only index-less line), for
// undecodable lines and for indices this request never sent.
func (b *BatchRequest) Relay(raw []byte) (line []byte, index int, ok bool) {
	var cell struct {
		Index     *int   `json:"index"`
		State     State  `json:"state"`
		FromCache bool   `json:"from_cache"`
		Error     string `json:"error"`
		Result    *struct {
			Cycles uint64
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &cell); err != nil || cell.Index == nil {
		return nil, 0, false
	}
	index = *cell.Index
	if b.designs == nil {
		b.tally(cell.State, cell.FromCache)
		return raw, index, true
	}
	if index < 0 || index >= len(b.norms) {
		return nil, 0, false
	}
	br := BatchResult{Index: index, Job: Job{Spec: b.norms[index], State: cell.State, FromCache: cell.FromCache, Error: cell.Error}}
	if cell.Result != nil {
		br.Result = &core.Result{Cycles: cell.Result.Cycles}
	}
	line, err := json.Marshal(b.Line(br))
	return line, index, err == nil
}

// Failure folds a cell no shard could answer into the summary and
// returns its synthesized failed line, keeping the cell's index and
// normalized spec (for a DSE point: its label, config and area).
func (b *BatchRequest) Failure(index int, spec JobSpec, msg string) []byte {
	var v any
	if b.designs != nil {
		v = b.Line(BatchResult{Index: index, Job: Job{Spec: spec, State: Failed, Error: msg}})
	} else {
		b.tally(Failed, false)
		v = struct {
			Index int     `json:"index"`
			Spec  JobSpec `json:"spec"`
			State State   `json:"state"`
			Error string  `json:"error"`
		}{index, spec, Failed, msg}
	}
	line, _ := json.Marshal(v)
	return line
}

// handleBatch serves POST /v1/batch: the whole group is parsed and
// admitted as one unit, then results stream back as NDJSON in
// completion order, each line a job snapshot tagged with its cell
// index. See Handler for the wire contract.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveBatch(w, r, ReadBatchBody)
}

// handleDSE serves POST /v1/dse: the exploration's expansion runs as
// one batch group, each completed cell streams back as its DSEPoint,
// and the summary carries the Pareto frontier over (cycles, area
// proxy). See Handler for the wire contract.
func (s *Service) handleDSE(w http.ResponseWriter, r *http.Request) {
	s.serveBatch(w, r, ReadDSEBody)
}

// serveBatch is the one batch serving path: parse the admission
// parameters and the body, admit the specs through SubmitBatch, and
// stream each completed cell through the request's post-pass.
func (s *Service) serveBatch(w http.ResponseWriter, r *http.Request, parse func(http.ResponseWriter, *http.Request) (*BatchRequest, error)) {
	prParam := r.URL.Query().Get("priority")
	priority, err := ParsePriority(prParam)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "priority",
			Value:     prParam,
			Want:      []string{string(PriorityBatch), string(PriorityInteractive)},
		})
		return
	}
	budgetHdr := r.Header.Get("X-Deadline-Budget")
	budget, err := resilience.ParseTimeout(budgetHdr, maxRequestTimeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "X-Deadline-Budget",
			Value:     budgetHdr,
			Want:      []string{"a Go duration, e.g. 5s or 500ms, at most " + maxRequestTimeout.String()},
		})
		return
	}

	req, err := parse(w, r)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	run, err := s.SubmitBatch(r.Context(), req.specs, BatchOptions{Priority: priority, Budget: budget})
	if err != nil {
		switch {
		case errors.Is(err, ErrBudgetExhausted):
			setRetryAfter(w, s.retryAfter(priority))
		case errors.Is(err, resilience.ErrBreakerOpen):
			setRetryAfter(w, time.Second)
			err = httpError{http.StatusServiceUnavailable, err.Error()}
		}
		WriteRequestError(w, req.SpecError(err)) // durability or pool closed: 503
		return
	}

	// Stream cells as they complete. A client that disconnects
	// mid-stream cancels only cells that have not started (dropped at
	// worker pickup); running cells finish and are journaled, so the
	// work already paid for is never discarded.
	stopCancel := context.AfterFunc(r.Context(), run.Cancel)
	defer stopCancel()
	w.Header().Set("Content-Type", ndjsonContentType)
	w.Header().Set(req.CountHeader(), strconv.Itoa(len(req.specs)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before the first cell completes: streaming
		// clients need the 200 to start reading, and a client gating its
		// own workload on it would otherwise deadlock against us.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for br := range run.Results() {
		br.Index = req.Indices[br.Index]
		_ = enc.Encode(req.Line(br))
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(req.Summary())
	if flusher != nil {
		flusher.Flush()
	}
}
