// Package sim provides the primitives shared by every machine timing
// model in this repository: a cycle clock, stat counters, cycle-breakdown
// accounting, and a deterministic PRNG for workload generation.
//
// All machine models in internal/viram, internal/imagine, internal/rawsim
// and internal/ppc are "functional + timing" simulators: they perform the
// real data transformation while a cycle-driven engine accounts time.
// This package holds the accounting half.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Clock is a monotonically advancing cycle counter. The zero value is a
// clock at cycle zero, ready to use.
type Clock struct {
	cycle uint64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.cycle }

// Advance moves the clock forward by n cycles and returns the new time.
func (c *Clock) Advance(n uint64) uint64 {
	c.cycle += n
	return c.cycle
}

// AdvanceTo moves the clock forward to cycle t. It is a no-op if t is in
// the past; clocks never move backward.
func (c *Clock) AdvanceTo(t uint64) uint64 {
	if t > c.cycle {
		c.cycle = t
	}
	return c.cycle
}

// Reset returns the clock to cycle zero.
func (c *Clock) Reset() { c.cycle = 0 }

// Counter identifies one named stat counter or breakdown category.
// Packages declare their counters once, at init, and write through the
// ID:
//
//	var cHits = sim.NewCounter("hits")
//	...
//	stats.Inc(cHits, 1)
//
// so a simulated event costs a scan over a handful of (Counter, value)
// pairs instead of hashing a string key. Stats and Breakdown share one
// name registry; names are only looked up to read or render.
type Counter uint32

var registry struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]Counter
}

// NewCounter returns the Counter for name, registering it on first use.
// Every call with the same name returns the same Counter, so packages
// that count the same event ("words_read", "memory") share it.
func NewCounter(name string) Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if id, ok := registry.ids[name]; ok {
		return id
	}
	if registry.ids == nil {
		registry.ids = make(map[string]Counter)
	}
	id := Counter(len(registry.names))
	registry.names = append(registry.names, name)
	registry.ids[name] = id
	return id
}

// entry is one counter's value.
type entry struct {
	id Counter
	v  uint64
}

// counters is the storage behind Stats and Breakdown: (Counter, value)
// pairs in first-touch order. A simulator touches a few to a dozen
// counters, so a linear scan beats hashing, and the slice is smaller
// than a map of the same entries. A counter touched with n=0 still gets
// an entry, so it renders as "name=0".
type counters []entry

func (cs *counters) add(id Counter, n uint64) {
	s := *cs
	for i := range s {
		if s[i].id == id {
			s[i].v += n
			return
		}
	}
	*cs = append(s, entry{id, n})
}

func (cs counters) value(id Counter) uint64 {
	for _, e := range cs {
		if e.id == id {
			return e.v
		}
	}
	return 0
}

func (cs counters) get(name string) uint64 {
	registry.mu.RLock()
	id, ok := registry.ids[name]
	registry.mu.RUnlock()
	if !ok {
		return 0
	}
	return cs.value(id)
}

// named is one entry resolved to its name, for reading and rendering.
type named struct {
	name string
	v    uint64
}

// sorted returns the entries ordered by name.
func (cs counters) sorted() []named {
	out := make([]named, len(cs))
	registry.mu.RLock()
	for i, e := range cs {
		out[i] = named{registry.names[e.id], e.v}
	}
	registry.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (cs counters) names() []string {
	out := make([]string, len(cs))
	for i, e := range cs.sorted() {
		out[i] = e.name
	}
	return out
}

func (cs *counters) merge(other counters) {
	for _, e := range other {
		cs.add(e.id, e.v)
	}
}

// Breakdown attributes simulated cycles to named categories (for example
// "memory", "compute", "startup"). The paper reports such breakdowns for
// every kernel/machine pair, so every simulator in this repository
// produces one. The zero value is ready to use.
//
// A copy of a Breakdown shares its values with the original, so a
// simulator starts each run from a fresh zero value instead of
// truncating one that a returned result may still hold.
type Breakdown struct {
	categories counters
}

// Add attributes n cycles to category c.
func (b *Breakdown) Add(c Counter, n uint64) { b.categories.add(c, n) }

// Value returns the cycles attributed to category c.
func (b Breakdown) Value(c Counter) uint64 { return b.categories.value(c) }

// Get returns the cycles attributed to category name.
func (b Breakdown) Get(name string) uint64 { return b.categories.get(name) }

// Total returns the sum over all categories.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, e := range b.categories {
		t += e.v
	}
	return t
}

// Categories returns the category names in sorted order.
func (b Breakdown) Categories() []string { return b.categories.names() }

// Fraction returns category name's share of the total, in [0, 1].
// It returns 0 when the breakdown is empty.
func (b Breakdown) Fraction(name string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Get(name)) / float64(t)
}

// Merge adds every category of other into b.
func (b *Breakdown) Merge(other Breakdown) { b.categories.merge(other.categories) }

// Scale multiplies every category by num/den using integer rounding.
// It is used when a simulator extrapolates (for example Raw's CSLC
// perfect-load-balance extrapolation in the paper).
func (b *Breakdown) Scale(num, den uint64) {
	if den == 0 {
		panic("sim: Breakdown.Scale with zero denominator")
	}
	for i, e := range b.categories {
		b.categories[i].v = (e.v*num + den/2) / den
	}
}

// Clone returns a deep copy.
func (b Breakdown) Clone() Breakdown { return Breakdown{append(counters(nil), b.categories...)} }

// String renders the breakdown as "cat1=N (p%), cat2=M (q%)".
func (b Breakdown) String() string {
	total := b.Total()
	var sb strings.Builder
	for i, e := range b.categories.sorted() {
		if i > 0 {
			sb.WriteString(", ")
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(e.v) / float64(total)
		}
		fmt.Fprintf(&sb, "%s=%d (%.1f%%)", e.name, e.v, pct)
	}
	return sb.String()
}

// Stats is a bag of named event counters (instructions issued, words
// transferred, bank conflicts, ...). The zero value is ready to use;
// copies share values as Breakdown copies do.
type Stats struct {
	counters counters
}

// Inc adds n to counter c.
func (s *Stats) Inc(c Counter, n uint64) { s.counters.add(c, n) }

// Value returns counter c.
func (s Stats) Value(c Counter) uint64 { return s.counters.value(c) }

// Get returns counter name.
func (s Stats) Get(name string) uint64 { return s.counters.get(name) }

// Names returns the counter names in sorted order.
func (s Stats) Names() []string { return s.counters.names() }

// Merge adds every counter of other into s.
func (s *Stats) Merge(other Stats) { s.counters.merge(other.counters) }

// String renders the counters as "name=value" pairs.
func (s Stats) String() string {
	var sb strings.Builder
	for i, e := range s.counters.sorted() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", e.name, e.v)
	}
	return sb.String()
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b uint64) uint64 {
	if b == 0 {
		panic("sim: CeilDiv by zero")
	}
	return (a + b - 1) / b
}

// Divider divides by a fixed positive divisor with exactly the results
// of Go's truncating / and %. Address decoders divide every simulated
// word address by geometry constants; when the divisor is a power of two
// and the dividend is non-negative, the quotient is a shift and the
// remainder a mask. Other divisors and negative dividends divide.
type Divider struct {
	d     int
	shift uint
	mask  int // d-1 when d is a power of two, else -1
}

// NewDivider returns a Divider for d. It panics if d <= 0.
func NewDivider(d int) Divider {
	if d <= 0 {
		panic("sim: NewDivider with non-positive divisor")
	}
	if d&(d-1) != 0 {
		return Divider{d: d, mask: -1}
	}
	return Divider{d: d, shift: uint(bits.TrailingZeros(uint(d))), mask: d - 1}
}

// Div returns a / d.
func (v Divider) Div(a int) int {
	if v.mask >= 0 && a >= 0 {
		return a >> v.shift
	}
	return a / v.d
}

// Mod returns a % d.
func (v Divider) Mod(a int) int {
	if v.mask >= 0 && a >= 0 {
		return a & v.mask
	}
	return a % v.d
}

// PRNG is a small deterministic xorshift64* generator used for workload
// synthesis. It must stay stable across runs so experiments are
// reproducible; do not replace it with math/rand.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift has an all-zero fixed point).
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PRNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (p *PRNG) Uint64() uint64 {
	x := p.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns an approximately standard-normal variate using the
// sum of 12 uniforms (Irwin–Hall); adequate for synthetic signal noise.
func (p *PRNG) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += p.Float64()
	}
	return s - 6
}
