package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sigkern/internal/svc"
)

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

func do(ctx context.Context, hc *http.Client, method, url, ctype string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status already says it failed
		resp.Body.Close()
		return nil, &httpError{resp.StatusCode, string(bytes.TrimSpace(b))}
	}
	return resp, nil
}

// jobCall is one POST /v1/jobs or GET /v1/jobs/{id} answer.
type jobCall struct {
	job   svc.Job
	bytes int
}

// postJob submits spec with the given query string ("wait=1",
// "tier=estimate") and decodes the job answer.
func postJob(ctx context.Context, hc *http.Client, base string, spec svc.JobSpec, query string) (jobCall, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobCall{}, err
	}
	resp, err := do(ctx, hc, http.MethodPost, base+"/v1/jobs?"+query, "application/json", body)
	if err != nil {
		return jobCall{}, err
	}
	return decodeJob(resp)
}

func getJob(ctx context.Context, hc *http.Client, base, id string) (jobCall, error) {
	resp, err := do(ctx, hc, http.MethodGet, base+"/v1/jobs/"+id, "", nil)
	if err != nil {
		return jobCall{}, err
	}
	return decodeJob(resp)
}

func decodeJob(resp *http.Response) (jobCall, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobCall{}, err
	}
	var jc jobCall
	jc.bytes = len(b)
	if err := json.Unmarshal(b, &jc.job); err != nil {
		return jobCall{}, fmt.Errorf("decoding job: %w", err)
	}
	if jc.job.State != svc.Done || jc.job.Result == nil {
		return jc, fmt.Errorf("job %s: state %s, error %q", jc.job.ID, jc.job.State, jc.job.Error)
	}
	return jc, nil
}

// streamCall is one NDJSON stream answer (/v1/batch or /v1/dse): the
// lines before the trailing summary, and when the first one arrived.
type streamCall struct {
	lines   [][]byte
	first   time.Time
	bytes   int
	summary []byte
}

// postStream posts body and reads the NDJSON answer to its summary
// line (the one carrying "done":true).
func postStream(ctx context.Context, hc *http.Client, url, ctype string, body []byte) (streamCall, error) {
	resp, err := do(ctx, hc, http.MethodPost, url, ctype, body)
	if err != nil {
		return streamCall{}, err
	}
	defer resp.Body.Close()
	var sc streamCall
	rd := bufio.NewScanner(resp.Body)
	rd.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for rd.Scan() {
		line := rd.Bytes()
		if len(line) == 0 {
			continue
		}
		if sc.first.IsZero() {
			sc.first = time.Now()
		}
		sc.bytes += len(line) + 1
		cp := append([]byte(nil), line...)
		if bytes.Contains(line, []byte(`"done":true`)) {
			sc.summary = cp
			continue
		}
		sc.lines = append(sc.lines, cp)
	}
	if err := rd.Err(); err != nil {
		return sc, err
	}
	if sc.summary == nil {
		return sc, fmt.Errorf("stream ended without a summary line")
	}
	return sc, nil
}

// postBatch posts specs as an NDJSON batch and decodes the cell lines.
func postBatch(ctx context.Context, hc *http.Client, base string, specs []svc.JobSpec) ([]svc.BatchResult, streamCall, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			return nil, streamCall{}, err
		}
	}
	sc, err := postStream(ctx, hc, base+"/v1/batch", "application/x-ndjson", body.Bytes())
	if err != nil {
		return nil, sc, err
	}
	cells := make([]svc.BatchResult, 0, len(sc.lines))
	for _, line := range sc.lines {
		var br svc.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			return nil, sc, fmt.Errorf("decoding batch line: %w", err)
		}
		cells = append(cells, br)
	}
	if len(cells) != len(specs) {
		return cells, sc, fmt.Errorf("batch answered %d of %d cells", len(cells), len(specs))
	}
	return cells, sc, nil
}

// postDSE posts a design-space sweep and decodes the point lines.
func postDSE(ctx context.Context, hc *http.Client, base string, req svc.DSERequest) ([]svc.DSEPoint, streamCall, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, streamCall{}, err
	}
	sc, err := postStream(ctx, hc, base+"/v1/dse", "application/json", body)
	if err != nil {
		return nil, sc, err
	}
	points := make([]svc.DSEPoint, 0, len(sc.lines))
	for _, line := range sc.lines {
		var p svc.DSEPoint
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, sc, fmt.Errorf("decoding dse line: %w", err)
		}
		points = append(points, p)
	}
	return points, sc, nil
}
