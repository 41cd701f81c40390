// Package cache implements a set-associative, write-back, write-allocate
// cache simulator with LRU replacement, composable into multi-level
// hierarchies backed by a DRAM controller. It provides the memory system
// of the PowerPC G4 baseline and the data-cache mode that Raw's MIMD
// kernels use (the paper's CSLC on Raw routes data "to local memories
// through cache misses").
//
// Addresses are byte addresses. Timing is returned per access: a hit
// costs the level's hit latency; a miss adds the lower level's cost for
// the whole line. Overlap of outstanding misses is the responsibility of
// the machine model (the G4 model divides stall time by its
// memory-level-parallelism factor), because overlap depends on the
// instruction stream, not on the cache.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"sigkern/internal/dram"
	"sigkern/internal/sim"
)

// Level is anything that can serve a line-sized access: a lower cache or
// a DRAM backend.
type Level interface {
	// Access serves a read or write of the line containing byte address
	// addr and returns its latency in cycles.
	Access(addr int, write bool) uint64
	// LineBytes returns the level's line size.
	LineBytes() int
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int
}

// MaxLines bounds a level's line count (sets x ways): the simulator
// holds per-line state, so the line count sizes an allocation.
const MaxLines = 1 << 20

// Validate reports whether the configuration describes a realizable cache.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return errors.New("cache: sizes and associativity must be positive")
	case c.SizeBytes/c.LineBytes > MaxLines:
		return fmt.Errorf("cache %s: %d lines exceed %d", c.Name, c.SizeBytes/c.LineBytes, MaxLines)
	case c.Assoc > c.SizeBytes/c.LineBytes:
		return fmt.Errorf("cache %s: %d ways exceed the %d lines", c.Name, c.Assoc, c.SizeBytes/c.LineBytes)
	case c.HitLatency < 0:
		return errors.New("cache: negative hit latency")
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc %d",
			c.Name, c.SizeBytes, c.LineBytes*c.Assoc)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case bits.OnesCount(uint(c.SizeBytes/(c.LineBytes*c.Assoc))) != 1:
		return fmt.Errorf("cache %s: set count not a power of two", c.Name)
	}
	return nil
}

// G4L1 returns the PowerPC G4's 32 KB, 8-way, 32-byte-line L1 data cache.
func G4L1() Config {
	return Config{Name: "g4-l1d", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 8, HitLatency: 1}
}

// G4L2 returns the G4's 256 KB on-chip L2.
func G4L2() Config {
	return Config{Name: "g4-l2", SizeBytes: 256 << 10, LineBytes: 32, Assoc: 8, HitLatency: 9}
}

// RawTileCache returns the cache configuration a Raw tile presents over
// its 32 KB data SRAM when running in cache-miss (MIMD) mode.
func RawTileCache(tile int) Config {
	return Config{
		Name: fmt.Sprintf("raw-tile%d-cache", tile), SizeBytes: 32 << 10,
		LineBytes: 32, Assoc: 2, HitLatency: 0,
	}
}

var (
	cHits       = sim.NewCounter("hits")
	cMisses     = sim.NewCounter("misses")
	cWritebacks = sim.NewCounter("writebacks")
)

// Cache is one simulated cache level. It is not safe for concurrent use.
//
// The ways of all sets live in parallel flat slices, set s occupying
// indices [s*Assoc, (s+1)*Assoc). Validate guarantees power-of-two line
// and set counts, so an address splits into tag, set and offset by
// shifts and a mask. A way's tags entry holds its tag plus one, so the
// cleared value marks it invalid and a lookup is one compare. Each set
// remembers its most recently used way, which is probed first: a tag is
// resident in at most one way of a set, so probe order changes no
// outcome, only how soon a hit is found.
type Cache struct {
	cfg       Config
	tags      []int    // tag+1 per way; 0 = invalid
	used      []uint64 // LRU tick of each way's last access
	dirty     []bool
	mru       []int // per set: the way (0..Assoc-1) hit or filled last
	lineShift uint  // log2(LineBytes)
	setShift  uint  // log2(number of sets)
	setMask   int   // number of sets - 1
	lower     Level
	tick      uint64

	hits, misses, writebacks uint64
}

// New returns a cache over the given lower level. It panics on an invalid
// configuration (configurations are constants in this repository).
func New(cfg Config, lower Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if lower == nil {
		panic("cache: nil lower level")
	}
	c := &Cache{cfg: cfg, lower: lower}
	c.Reset()
	return c
}

// Reset invalidates every line and clears statistics. The way arrays
// are allocated once and zeroed on later resets: the simulators reset
// between every kernel run, and the PPC hierarchy alone holds over a
// thousand sets.
func (c *Cache) Reset() {
	nsets := c.cfg.SizeBytes / (c.cfg.LineBytes * c.cfg.Assoc)
	if len(c.mru) != nsets {
		nways := nsets * c.cfg.Assoc
		c.tags = make([]int, nways)
		c.used = make([]uint64, nways)
		c.dirty = make([]bool, nways)
		c.mru = make([]int, nsets)
		c.lineShift = uint(bits.TrailingZeros(uint(c.cfg.LineBytes)))
		c.setShift = uint(bits.TrailingZeros(uint(nsets)))
		c.setMask = nsets - 1
	} else {
		clear(c.tags)
		clear(c.used)
		clear(c.dirty)
		clear(c.mru)
	}
	c.tick = 0
	c.hits, c.misses, c.writebacks = 0, 0, 0
	if lc, ok := c.lower.(interface{ Reset() }); ok {
		lc.Reset()
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes implements Level.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Stats returns this level's counters (hits, misses, writebacks). A
// counter that is still zero is absent, as if it had never been
// incremented.
func (c *Cache) Stats() sim.Stats {
	var s sim.Stats
	for _, e := range [...]struct {
		c sim.Counter
		n uint64
	}{{cHits, c.hits}, {cMisses, c.misses}, {cWritebacks, c.writebacks}} {
		if e.n > 0 {
			s.Inc(e.c, e.n)
		}
	}
	return s
}

// Access implements Level: it serves the access and returns its latency.
func (c *Cache) Access(addr int, write bool) uint64 {
	if addr < 0 {
		addr = -addr
	}
	c.tick++
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	key := lineAddr>>c.setShift + 1

	base := set * c.cfg.Assoc
	if w := base + c.mru[set]; c.tags[w] == key {
		return c.hit(w, write)
	}
	// One pass finds a hit or, failing that, the LRU victim: the way
	// with the oldest tick. Ticks are unique and invalid ways hold tick
	// 0, so an invalid way is taken while the set has one.
	tags := c.tags[base : base+c.cfg.Assoc]
	used := c.used[base : base+len(tags)]
	victim := 0
	for i, t := range tags {
		if t == key {
			c.mru[set] = i
			return c.hit(base+i, write)
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	c.misses++

	w := base + victim
	lat := uint64(c.cfg.HitLatency)
	if c.tags[w] != 0 && c.dirty[w] {
		// Write back the victim. Writebacks are buffered in real machines;
		// we charge the lower level's occupancy but not its full latency.
		victimAddr := ((c.tags[w]-1)<<c.setShift | set) << c.lineShift
		c.lower.Access(victimAddr, true)
		c.writebacks++
	}
	lat += c.lower.Access(addr, false)
	c.tags[w] = key
	c.used[w] = c.tick
	c.dirty[w] = write
	c.mru[set] = victim
	return lat
}

// hit records a hit on flat way index w.
func (c *Cache) hit(w int, write bool) uint64 {
	c.used[w] = c.tick
	if write {
		c.dirty[w] = true
	}
	c.hits++
	return uint64(c.cfg.HitLatency)
}

// MissRate returns misses / (hits + misses), or 0 when idle.
func (c *Cache) MissRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.hits+c.misses)
}

// DRAMBackend adapts a dram.Controller as the lowest Level of a
// hierarchy. Line fills stream LineWords words per fetch.
type DRAMBackend struct {
	Ctl       *dram.Controller
	LineWords int
}

// NewDRAMBackend returns a backend fetching lines of lineBytes from ctl.
func NewDRAMBackend(ctl *dram.Controller, lineBytes int) *DRAMBackend {
	if lineBytes%4 != 0 {
		panic("cache: line size must be a multiple of 4 bytes")
	}
	return &DRAMBackend{Ctl: ctl, LineWords: lineBytes / 4}
}

// Access implements Level by fetching or writing one full line.
func (b *DRAMBackend) Access(addr int, write bool) uint64 {
	return b.Ctl.LineFetch(addr/4, b.LineWords)
}

// LineBytes implements Level.
func (b *DRAMBackend) LineBytes() int { return b.LineWords * 4 }

// Reset rewinds the underlying controller.
func (b *DRAMBackend) Reset() { b.Ctl.Reset() }

// FixedLatency is a trivial Level with constant access time; useful in
// tests and for modeling an idealized next level.
type FixedLatency struct {
	Latency uint64
	Line    int
}

// Access implements Level.
func (f *FixedLatency) Access(addr int, write bool) uint64 { return f.Latency }

// LineBytes implements Level.
func (f *FixedLatency) LineBytes() int {
	if f.Line == 0 {
		return 32
	}
	return f.Line
}
