package cache

import (
	"testing"

	"sigkern/internal/sim"
)

// refLine is one way of the reference model's array-of-structs set.
type refLine struct {
	tag   int
	valid bool
	dirty bool
	used  uint64
}

// refCache is the reference model for Cache: a set-associative,
// write-back, write-allocate LRU cache written the obvious way, one
// slice of lines per set, decoded with division.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	lower Level
	tick  uint64

	hits, misses, writebacks uint64
}

func newRefCache(cfg Config, lower Level) *refCache {
	r := &refCache{cfg: cfg, lower: lower}
	r.reset()
	return r
}

func (r *refCache) reset() {
	nsets := r.cfg.SizeBytes / (r.cfg.LineBytes * r.cfg.Assoc)
	r.sets = make([][]refLine, nsets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, r.cfg.Assoc)
	}
	r.tick = 0
	r.hits, r.misses, r.writebacks = 0, 0, 0
}

func (r *refCache) access(addr int, write bool) uint64 {
	if addr < 0 {
		addr = -addr
	}
	r.tick++
	nsets := len(r.sets)
	lineAddr := addr / r.cfg.LineBytes
	set := lineAddr % nsets
	tag := lineAddr / nsets
	ways := r.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = r.tick
			ways[i].dirty = ways[i].dirty || write
			r.hits++
			return uint64(r.cfg.HitLatency)
		}
	}
	r.misses++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if victim < 0 || ways[i].used < ways[victim].used {
			victim = i
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		r.lower.Access((ways[victim].tag*nsets+set)*r.cfg.LineBytes, true)
		r.writebacks++
	}
	lat := uint64(r.cfg.HitLatency) + r.lower.Access(addr, false)
	ways[victim] = refLine{tag: tag, valid: true, dirty: write, used: r.tick}
	return lat
}

// lowerAccess is one access a cache level passed down.
type lowerAccess struct {
	addr  int
	write bool
}

// recordingLevel is a lower level that logs every access and answers
// with an address-dependent latency, so a cache that passes down the
// wrong address also returns the wrong latency.
type recordingLevel struct {
	log []lowerAccess
}

func (l *recordingLevel) Access(addr int, write bool) uint64 {
	l.log = append(l.log, lowerAccess{addr, write})
	return 20 + uint64(addr>>5)%13
}

func (l *recordingLevel) LineBytes() int { return 32 }

// TestCacheMatchesReferenceModel drives Cache and refCache with the
// same seeded read/write streams at the paper's cache geometries and
// requires the same latency on every access, the same hit, miss and
// writeback counts, and the same sequence of lower-level accesses.
// Working sets reach four times the cache capacity, so every stream
// evicts, and a Reset mid-stream must forget every line.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, cfg := range []Config{G4L1(), G4L2(), RawTileCache(3)} {
		for seed := uint64(1); seed <= 3; seed++ {
			gotLower, wantLower := &recordingLevel{}, &recordingLevel{}
			got, want := New(cfg, gotLower), newRefCache(cfg, wantLower)
			rng := sim.NewPRNG(seed)
			span := 4 * cfg.SizeBytes
			const accesses = 60000
			addr := 0
			for i := 0; i < accesses; i++ {
				if i == accesses/2 {
					got.Reset()
					want.reset()
				}
				switch rng.Intn(4) {
				case 0: // sequential word walk
					addr += 4
				case 1: // same-set stride: collides in one set
					addr += cfg.SizeBytes / cfg.Assoc
				case 2: // column walk of a 1024-word-row matrix
					addr += 4096
				default:
					addr = rng.Intn(span)
				}
				addr %= span
				a := addr
				if rng.Intn(64) == 0 {
					a = -a
				}
				write := rng.Intn(3) == 0
				g, w := got.Access(a, write), want.access(a, write)
				if g != w {
					t.Fatalf("%s seed %d access %d (addr %d write %v): latency %d, reference %d",
						cfg.Name, seed, i, a, write, g, w)
				}
			}
			s := got.Stats()
			if s.Get("hits") != want.hits || s.Get("misses") != want.misses ||
				s.Get("writebacks") != want.writebacks {
				t.Fatalf("%s seed %d: stats %s, reference hits=%d misses=%d writebacks=%d",
					cfg.Name, seed, s, want.hits, want.misses, want.writebacks)
			}
			if want.writebacks == 0 || want.misses == 0 || want.hits == 0 {
				t.Fatalf("%s seed %d: stream too tame (hits=%d misses=%d writebacks=%d)",
					cfg.Name, seed, want.hits, want.misses, want.writebacks)
			}
			if len(gotLower.log) != len(wantLower.log) {
				t.Fatalf("%s seed %d: %d lower accesses, reference %d",
					cfg.Name, seed, len(gotLower.log), len(wantLower.log))
			}
			for i := range gotLower.log {
				if gotLower.log[i] != wantLower.log[i] {
					t.Fatalf("%s seed %d: lower access %d = %+v, reference %+v",
						cfg.Name, seed, i, gotLower.log[i], wantLower.log[i])
				}
			}
		}
	}
}
