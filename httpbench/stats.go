package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// samples collects one timing series. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), s.v...)
	sort.Float64s(out)
	return out
}

// summary is a timing series reduced the way the benchmark reports it:
// the median and the highest percentile that still has at least ten
// samples beyond it, with the sample count.
type summary struct {
	N       int
	P50     float64
	Mean    float64
	Tail    float64
	TailPct float64 // the percentile Tail sits at, 0..100
}

func (s *samples) summary() summary {
	v := s.sorted()
	return summarize(v)
}

func summarize(v []float64) summary {
	n := len(v)
	if n == 0 {
		return summary{}
	}
	out := summary{N: n, P50: median(v)}
	for _, x := range v {
		out.Mean += x / float64(n)
	}
	// Exactly ten samples lie beyond v[n-11]; with fewer than 11 samples
	// no percentile has ten beyond it, so the tail falls back to the
	// median and says so with TailPct 50.
	if n >= 11 {
		out.Tail = v[n-11]
		out.TailPct = 100 * float64(n-10) / float64(n)
	} else {
		out.Tail, out.TailPct = out.P50, 50
	}
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.4g, p%.4g %.4g (n=%d)", s.P50, s.TailPct, s.Tail, s.N)
}

// median of an ascending slice (mean of the middle pair when even).
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func medianOf(v []float64) float64 { return median(sortedCopy(v)) }

func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memInUse is the runtime's memory in use, in MB: everything it has
// mapped minus what it has released to the OS or holds free.
func memInUse() float64 {
	ms := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()-ms[1].Value.Uint64()-ms[2].Value.Uint64()) / (1 << 20)
}

// cpuTime is the CPU time the process has used, user and system. Time
// the hypervisor gave to other guests is not in it, so it holds still
// on a shared host where wall-clock rates do not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseCounts is the request ledger of one benchmark phase.
type phaseCounts struct {
	mu                  sync.Mutex
	sent, ok, failed    int
	late                samples // ms the generator sent after each request was due
	firstFailure        string
	failuresByOperation map[string]int
}

func (p *phaseCounts) record(op string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	if err == nil {
		p.ok++
		return
	}
	p.failed++
	if p.firstFailure == "" {
		p.firstFailure = op + ": " + err.Error()
	}
	if p.failuresByOperation == nil {
		p.failuresByOperation = map[string]int{}
	}
	p.failuresByOperation[op]++
}

func (p *phaseCounts) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := fmt.Sprintf("sent %d, succeeded %d, failed %d", p.sent, p.ok, p.failed)
	if p.firstFailure != "" {
		s += fmt.Sprintf(" (first failure: %s; by operation %v)", p.firstFailure, p.failuresByOperation)
	}
	return s
}
