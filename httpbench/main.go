// Command httpbench is the repository's end-to-end benchmark. It drives
// the real HTTP stack — simserved's svc.Service.Handler, and simgate's
// cluster.Gateway.Handler in front of durable shards — on loopback
// listeners from one process, checks every answer against the pinned
// Table 3 cells or an in-process run of the same spec, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run times calls into each layer from this package and reports
// the per-layer metrics. BENCHMARK.json at the repository root lists
// both sets; README.md beside this file says what each workload is for.
//
// Usage, from the repository root:
//
//	bash httpbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/svc"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceOut is where a traced run writes its spans ("" skips it).
	traceOut string
	// factory builds the servers' machines; nil means the paper
	// machines. The correctness-gate test injects a wrong one here.
	factory svc.MachineFactory
	report  io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run prints as its last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*runner) error{
	"paper-grid":      paperGrid,
	"api-mix":         apiMix,
	"cluster-durable": clusterDurable,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "paper-grid, api-mix or cluster-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.report = os.Stdout
	if cfg.trace {
		cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "httpbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "httpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "httpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runner carries one run's state: what the workload measured, the
// correctness gate, and the tracer (nil when untraced).
type runner struct {
	cfg     config
	ctx     context.Context
	rng     *rand.Rand
	vars    *variants
	chk     *checker
	tr      *tracer
	start   time.Time // start of the measurement window
	measure phaseCounts
	setup   phaseCounts
	verify  phaseCounts

	setupS []float64
	// e2e holds the op latency series by class ("grid", "job", ...),
	// timed from each request's due time; in a traced run only the
	// untraced blocks feed it, and tracedOps the traced ones.
	seriesMu  sync.Mutex
	e2e       map[string]*samples
	tracedOps map[string]*samples
	// perSecond counts main-class ops completed in each second of the
	// window, so a stall shows in the report instead of being absorbed.
	perSecond []atomic.Int64
	// mainClass and sideClass name the e2e series behind op_* and
	// side_p50_ms.
	mainClass, sideClass string
	cells                int // cells answered in the measurement window
	elapsed              time.Duration
	cpu                  time.Duration // process CPU time used in the window
	rssMB                float64

	// Per-layer series gathered while the workload runs (traced blocks
	// for the in-process calls, every op for what answers carry).
	queueWaitMS, execMS, resultBytes, httpUS, hopUS samples
	batchFirstMS, batchMS                           samples
	reuse                                           struct{ reuses, builds, checks, cells uint64 }
	memoHit                                         float64
	hedges, hedgeWins, reroutes                     uint64
	// journalSizes are the payload sizes of the records the durable
	// shards wrote; journalCells the cells those shards accepted.
	journalSizes     []int
	journalCells     atomic.Int64
	simNS, simCycles map[string]float64
	client           *http.Client
	// memStop and memDone bracket the memory sampler; secPeak is the
	// highest runtime memory in use it saw in each second of the window,
	// in MB.
	memStop, memDone chan struct{}
	secPeak          []float64
}

func (r *runner) sampleMem() {
	inUse := memInUse()
	if i := int(time.Since(r.start) / time.Second); i < len(r.secPeak) {
		r.secPeak[i] = max(r.secPeak[i], inUse)
	}
}

// memMB is the median over the window's whole seconds of the peak
// runtime memory in use sampled in each: the working set a run holds,
// steadier across runs than one high-water mark that a single
// collection's timing decides.
func (r *runner) memMB() float64 {
	n := int(r.elapsed / time.Second)
	return medianOf(r.secPeak[:min(n, len(r.secPeak))])
}

func (r *runner) hc() *http.Client { return r.client }

// window is the measurement window.
func (r *runner) window() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

func (r *runner) addJournalCells(n int) { r.journalCells.Add(int64(n)) }

// opSample records a duration in the series for class.
func (r *runner) opSample(class string, d time.Duration, traced bool) {
	m := r.e2e
	if traced {
		m = r.tracedOps
	}
	r.series(m, class).addDur(d, time.Millisecond)
}

func newRunner(cfg config) *runner {
	r := &runner{
		cfg:       cfg,
		ctx:       context.Background(),
		rng:       rand.New(rand.NewSource(cfg.seed)),
		vars:      newVariants(cfg.seed + 7919),
		e2e:       map[string]*samples{},
		tracedOps: map[string]*samples{},
		simNS:     map[string]float64{},
		simCycles: map[string]float64{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) series(m map[string]*samples, name string) *samples {
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	s := m[name]
	if s == nil {
		s = &samples{}
		m[name] = s
	}
	return s
}

// tracedAt reports whether an op starting at t falls in a traced block.
// A traced run alternates untraced and traced blocks of blockLen, so the
// untraced blocks give the same run's baseline for the tracing overhead.
func (r *runner) tracedAt(t time.Time, blockLen time.Duration) bool {
	if r.tr == nil {
		return false
	}
	return (t.Sub(r.start)/blockLen)%2 == 1
}

// opDone records one op's latency (from its due time) in the series for
// class, split by whether its block was traced.
func (r *runner) opDone(class string, due time.Time, traced bool) {
	ms := float64(time.Since(due)) / float64(time.Millisecond)
	if class == r.mainClass {
		if i := int(time.Since(r.start) / time.Second); i < len(r.perSecond) {
			r.perSecond[i].Add(1)
		}
	}
	if traced {
		r.series(r.tracedOps, class).add(ms)
		return
	}
	r.series(r.e2e, class).add(ms)
}

// timeSetup runs one set-up and records how long it took.
func (r *runner) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	r.setup.record("setup", err)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

// jobTimes records the queue wait and execution time a simulated job
// reports (memo hits never start, so they carry neither).
func (r *runner) jobTimes(j svc.Job) {
	if j.Started.IsZero() || j.Finished.IsZero() {
		return
	}
	r.queueWaitMS.addDur(j.Started.Sub(j.Submitted), time.Millisecond)
	r.execMS.addDur(j.Finished.Sub(j.Started), time.Millisecond)
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.cfg.report, format+"\n", args...)
}

func run(cfg config) (outcome, error) {
	r := newRunner(cfg)
	chk, err := newChecker()
	if err != nil {
		return outcome{}, err
	}
	defer chk.answers.close() // unmapping a mapping this run made cannot fail
	r.chk = chk
	r.printf("httpbench: workload %s, seed %d, %.0fs, traced %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err := workloads[cfg.workload](r); err != nil {
		return outcome{}, err
	}
	r.printf("phase setup: %s", &r.setup)
	r.printf("phase measure: %s; generator lateness %s ms", &r.measure, r.measure.late.summary())
	counts := make([]string, len(r.perSecond))
	for i := range r.perSecond {
		counts[i] = fmt.Sprint(r.perSecond[i].Load())
	}
	r.printf("%s ops completed per second: %s", r.mainClass, strings.Join(counts, " "))
	if cfg.trace {
		if err := r.layerProbes(); err != nil {
			return outcome{}, err
		}
	}
	r.printf("phase verify: %s", &r.verify)
	r.chk.verify()
	for _, m := range r.chk.mismatches {
		r.printf("MISMATCH %s", m)
	}
	r.printf("correctness: %d mismatches; breakdown/stats differ from in-process on %d of %d answers",
		r.chk.count, r.chk.lost, r.chk.compared)
	out := outcome{
		Correct:   r.chk.ok() && r.setup.failed == 0 && r.verify.failed == 0,
		Attempted: r.measure.sent,
		Failed:    r.measure.failed,
	}
	if out.Attempted == 0 {
		return outcome{}, fmt.Errorf("no operation completed in the measurement window")
	}
	if cfg.trace {
		out.Metrics = r.layerMetrics()
	} else {
		out.Metrics = r.endToEnd()
	}
	return out, nil
}
