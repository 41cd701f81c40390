package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %d, want 0", c.Now())
	}
	if got := c.Advance(5); got != 5 {
		t.Fatalf("Advance(5) = %d, want 5", got)
	}
	if got := c.Advance(3); got != 8 {
		t.Fatalf("second Advance = %d, want 8", got)
	}
}

func TestClockAdvanceToNeverMovesBackward(t *testing.T) {
	var c Clock
	c.Advance(10)
	if got := c.AdvanceTo(4); got != 10 {
		t.Fatalf("AdvanceTo(4) = %d, want 10 (no backward motion)", got)
	}
	if got := c.AdvanceTo(15); got != 15 {
		t.Fatalf("AdvanceTo(15) = %d, want 15", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after Reset clock at %d, want 0", c.Now())
	}
}

func TestBreakdownAddGetTotal(t *testing.T) {
	var b Breakdown
	b.Add(NewCounter("memory"), 70)
	b.Add(NewCounter("compute"), 30)
	b.Add(NewCounter("memory"), 10)
	if got := b.Get("memory"); got != 80 {
		t.Fatalf("Get(memory) = %d, want 80", got)
	}
	if got := b.Total(); got != 110 {
		t.Fatalf("Total = %d, want 110", got)
	}
	if got := b.Get("absent"); got != 0 {
		t.Fatalf("Get(absent) = %d, want 0", got)
	}
}

func TestBreakdownFraction(t *testing.T) {
	var b Breakdown
	if f := b.Fraction("x"); f != 0 {
		t.Fatalf("empty breakdown Fraction = %v, want 0", f)
	}
	b.Add(NewCounter("a"), 25)
	b.Add(NewCounter("b"), 75)
	if f := b.Fraction("b"); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("Fraction(b) = %v, want 0.75", f)
	}
}

func TestBreakdownCategoriesSorted(t *testing.T) {
	var b Breakdown
	b.Add(NewCounter("zeta"), 1)
	b.Add(NewCounter("alpha"), 1)
	b.Add(NewCounter("mid"), 1)
	got := b.Categories()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Categories = %v, want %v", got, want)
		}
	}
}

func TestBreakdownMergeAndClone(t *testing.T) {
	var a, b Breakdown
	a.Add(NewCounter("x"), 5)
	b.Add(NewCounter("x"), 7)
	b.Add(NewCounter("y"), 3)
	a.Merge(b)
	if a.Get("x") != 12 || a.Get("y") != 3 {
		t.Fatalf("after merge: x=%d y=%d, want 12 3", a.Get("x"), a.Get("y"))
	}
	c := a.Clone()
	c.Add(NewCounter("x"), 100)
	if a.Get("x") != 12 {
		t.Fatalf("Clone is not independent: a.x=%d", a.Get("x"))
	}
}

func TestBreakdownScale(t *testing.T) {
	var b Breakdown
	b.Add(NewCounter("busy"), 73)
	b.Scale(64, 73) // the Raw load-balance extrapolation shape
	if got := b.Get("busy"); got != 64 {
		t.Fatalf("Scale(64/73) of 73 = %d, want 64", got)
	}
}

func TestBreakdownScaleZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale with zero denominator did not panic")
		}
	}()
	var b Breakdown
	b.Add(NewCounter("x"), 1)
	b.Scale(1, 0)
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.Add(NewCounter("mem"), 90)
	b.Add(NewCounter("cpu"), 10)
	s := b.String()
	if !strings.Contains(s, "mem=90 (90.0%)") || !strings.Contains(s, "cpu=10 (10.0%)") {
		t.Fatalf("String = %q", s)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Inc(NewCounter("loads"), 4)
	s.Inc(NewCounter("loads"), 6)
	s.Inc(NewCounter("stores"), 1)
	if s.Get("loads") != 10 {
		t.Fatalf("loads = %d, want 10", s.Get("loads"))
	}
	var other Stats
	other.Inc(NewCounter("loads"), 1)
	other.Inc(NewCounter("flops"), 2)
	s.Merge(other)
	if s.Get("loads") != 11 || s.Get("flops") != 2 {
		t.Fatalf("after merge: %s", s.String())
	}
	if !strings.Contains(s.String(), "flops=2") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestNewCounterSharesOneRegistry(t *testing.T) {
	a, b := NewCounter("shared_name"), NewCounter("shared_name")
	if a != b {
		t.Fatalf("same name registered twice: %d, %d", a, b)
	}
	if NewCounter("other_name") == a {
		t.Fatal("distinct names share a Counter")
	}
	// Stats and Breakdown resolve names through the same registry.
	var s Stats
	var bk Breakdown
	s.Inc(a, 3)
	bk.Add(a, 4)
	if s.Get("shared_name") != 3 || bk.Get("shared_name") != 4 {
		t.Fatalf("Get: stats %d, breakdown %d", s.Get("shared_name"), bk.Get("shared_name"))
	}
	if s.Value(a) != 3 || bk.Value(a) != 4 {
		t.Fatalf("Value: stats %d, breakdown %d", s.Value(a), bk.Value(a))
	}
	if s.Get("never_registered") != 0 {
		t.Fatal("unregistered name read nonzero")
	}
}

// A counter touched with n=0 exists: it renders and is listed, as a
// map key written with += 0 did.
func TestZeroTouchRenders(t *testing.T) {
	var s Stats
	s.Inc(NewCounter("stall_unit"), 0)
	s.Inc(NewCounter("alu0_busy"), 5)
	if got, want := s.String(), "alu0_busy=5, stall_unit=0"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	var b Breakdown
	b.Add(NewCounter("startup+wait"), 0)
	b.Add(NewCounter("memory"), 10)
	if got, want := b.String(), "memory=10 (100.0%), startup+wait=0 (0.0%)"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := b.Categories(); len(got) != 2 {
		t.Fatalf("Categories = %v", got)
	}
}

// A copy shares its entries with the original, as the map did; a
// simulator that starts each run from a zero value never disturbs a
// result it already handed out.
func TestCopiesShareUntilReset(t *testing.T) {
	c := NewCounter("memory")
	var machine Breakdown
	machine.Add(c, 10)
	result := machine
	machine.Add(c, 5)
	if result.Get("memory") != 15 {
		t.Fatalf("copy does not share storage: %d", result.Get("memory"))
	}
	machine = Breakdown{}
	machine.Add(c, 1)
	if result.Get("memory") != 15 {
		t.Fatalf("reset disturbed a returned result: %d", result.Get("memory"))
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {16, 8, 2}, {17, 8, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv by zero did not panic")
		}
	}()
	CeilDiv(1, 0)
}

// Property: CeilDiv(a,b)*b >= a and (CeilDiv(a,b)-1)*b < a for a > 0.
func TestCeilDivProperty(t *testing.T) {
	f := func(a uint64, b uint64) bool {
		a %= 1 << 32
		b = b%1024 + 1
		q := CeilDiv(a, b)
		if q*b < a {
			return false
		}
		if a > 0 && (q-1)*b >= a {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDividerMatchesGoDivision requires Div and Mod to agree with Go's
// truncating / and % for negative, zero and positive dividends, at
// power-of-two divisors (the shift path) and at others.
func TestDividerMatchesGoDivision(t *testing.T) {
	dividends := []int{math.MinInt, math.MinInt + 1, -1 << 40, -4097, -4096, -13, -8, -7, -1, 0, 1, 7, 8, 13,
		4095, 4096, 4097, 1 << 40, math.MaxInt}
	for _, d := range []int{1, 2, 3, 4, 6, 8, 12, 100, 512, 1000, 4096, 1 << 30} {
		v := NewDivider(d)
		for _, a := range dividends {
			if q, r := v.Div(a), v.Mod(a); q != a/d || r != a%d {
				t.Errorf("NewDivider(%d): Div/Mod(%d) = %d, %d; want %d, %d", d, a, q, r, a/d, a%d)
			}
		}
	}
	f := func(a int64, d uint16) bool {
		div := int(d) + 1
		if d%2 == 0 {
			div = 1 << (d % 31)
		}
		v := NewDivider(div)
		return v.Div(int(a)) == int(a)/div && v.Mod(int(a)) == int(a)%div
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewDividerRejectsNonPositive(t *testing.T) {
	for _, d := range []int{0, -1, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDivider(%d) did not panic", d)
				}
			}()
			NewDivider(d)
		}()
	}
}

func TestPRNGDeterministic(t *testing.T) {
	a := NewPRNG(42)
	b := NewPRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestPRNGZeroSeedRemapped(t *testing.T) {
	p := NewPRNG(0)
	if p.Uint64() == 0 && p.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestPRNGIntnRange(t *testing.T) {
	p := NewPRNG(7)
	for i := 0; i < 1000; i++ {
		v := p.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestPRNGIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewPRNG(1).Intn(0)
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(9)
	for i := 0; i < 1000; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestPRNGNormFloat64Moments(t *testing.T) {
	p := NewPRNG(11)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := p.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}
