package viram

import (
	"testing"

	"sigkern/internal/sim"
)

// mapTLB is the reference model for tlb: the map-keyed LRU the array
// form replaced. A miss with the map full scans every entry for the
// oldest tick.
type mapTLB struct {
	entries   int
	pageWords int
	pages     map[int]uint64
	tick      uint64
}

func (t *mapTLB) touch(base, stride, count int) uint64 {
	var misses uint64
	last := -1
	for i := 0; i < count; i++ {
		page := (base + i*stride) / t.pageWords
		if page == last {
			continue
		}
		last = page
		t.tick++
		if _, ok := t.pages[page]; ok {
			t.pages[page] = t.tick
			continue
		}
		misses++
		if len(t.pages) >= t.entries {
			var victim int
			oldest := ^uint64(0)
			for p, when := range t.pages {
				if when < oldest {
					oldest, victim = when, p
				}
			}
			delete(t.pages, victim)
		}
		t.pages[page] = t.tick
	}
	return misses
}

// TestTLBMatchesMapReference drives the array TLB and the map reference
// with the same seeded random access streams and requires the same miss
// count on every call. The streams mix short unit-stride runs with long
// page-stride sweeps whose working set exceeds the TLB, so eviction
// order is exercised, and a reset mid-stream must forget every page.
func TestTLBMatchesMapReference(t *testing.T) {
	for _, entries := range []int{1, 4, 48} {
		for seed := uint64(1); seed <= 4; seed++ {
			const pageBytes = 1 << 10
			got := newTLB(entries, pageBytes)
			want := &mapTLB{entries: entries, pageWords: pageBytes / 4, pages: map[int]uint64{}}
			rng := sim.NewPRNG(seed)
			span := 4 * entries * want.pageWords // working set up to 4x the TLB reach
			for call := 0; call < 1000; call++ {
				if call == 500 {
					got.reset()
					want.pages, want.tick = map[int]uint64{}, 0
				}
				base := rng.Intn(span)
				var stride int
				switch rng.Intn(3) {
				case 0:
					stride = 1
				case 1:
					stride = want.pageWords * (1 + rng.Intn(3))
				default:
					stride = 1 + rng.Intn(2*want.pageWords)
				}
				count := 1 + rng.Intn(4*entries+8)
				g, w := got.touch(base, stride, count), want.touch(base, stride, count)
				if g != w {
					t.Fatalf("entries=%d seed=%d call %d touch(%d, %d, %d): %d misses, reference %d",
						entries, seed, call, base, stride, count, g, w)
				}
			}
		}
	}
}
