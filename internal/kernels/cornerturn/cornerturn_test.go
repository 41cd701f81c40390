package cornerturn

import (
	"testing"
	"testing/quick"

	"sigkern/internal/kernels/testsig"
)

func TestPaperSpec(t *testing.T) {
	s := PaperSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Words() != 1<<20 {
		t.Fatalf("paper matrix words = %d, want 1M", s.Words())
	}
	// The paper's sizing argument: bigger than the 128 KB SRF and Raw's
	// 2 MB SRAM, smaller than VIRAM's 13 MB DRAM.
	bytes := s.Words() * 4
	if bytes <= 128<<10 || bytes <= 2<<20 || bytes >= 13<<20 {
		t.Fatalf("matrix bytes %d violate the paper's sizing constraints", bytes)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Rows: 0, Cols: 4, BlockSize: 2},
		{Rows: 4, Cols: -1, BlockSize: 2},
		{Rows: 4, Cols: 4, BlockSize: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed validation", i)
		}
	}
}

func TestTransposeSmallKnown(t *testing.T) {
	src := testsig.ZeroMatrix(2, 3)
	v := int32(1)
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			src.Set(r, c, v)
			v++
		}
	}
	dst := testsig.ZeroMatrix(3, 2)
	if err := Transpose(dst, src); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst.Data = %v, want %v", dst.Data, want)
		}
	}
}

func TestTransposeShapeMismatch(t *testing.T) {
	src := testsig.NewMatrix(4, 8, 1)
	bad := testsig.ZeroMatrix(4, 8)
	if err := Transpose(bad, src); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
	if err := TransposeBlocked(bad, src, 2); err == nil {
		t.Fatal("blocked: shape mismatch not rejected")
	}
	if err := TransposeStrips(bad, src, 2); err == nil {
		t.Fatal("strips: shape mismatch not rejected")
	}
}

func TestVariantsAgree(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {16, 32}, {33, 17}, {64, 64}, {100, 7}} {
		src := testsig.NewMatrix(dims[0], dims[1], uint64(dims[0]*1000+dims[1]))
		ref := testsig.ZeroMatrix(dims[1], dims[0])
		if err := Transpose(ref, src); err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{1, 4, 16, 100} {
			got := testsig.ZeroMatrix(dims[1], dims[0])
			if err := TransposeBlocked(got, src, block); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%dx%d block=%d: blocked transpose differs", dims[0], dims[1], block)
			}
		}
		for _, strips := range []int{1, 4, 5} {
			got := testsig.ZeroMatrix(dims[1], dims[0])
			if err := TransposeStrips(got, src, strips); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%dx%d strips=%d: strip transpose differs", dims[0], dims[1], strips)
			}
		}
	}
}

// Property: transpose is an involution — T(T(x)) == x.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(rseed uint64, rdim, cdim uint8) bool {
		rows := int(rdim)%32 + 1
		cols := int(cdim)%32 + 1
		src := testsig.NewMatrix(rows, cols, rseed)
		once := testsig.ZeroMatrix(cols, rows)
		twice := testsig.ZeroMatrix(rows, cols)
		if err := Transpose(once, src); err != nil {
			return false
		}
		if err := Transpose(twice, once); err != nil {
			return false
		}
		return twice.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: element (r,c) of the source appears at (c,r) of the result.
func TestTransposeElementMapProperty(t *testing.T) {
	src := testsig.NewMatrix(16, 24, 3)
	dst := testsig.ZeroMatrix(24, 16)
	if err := TransposeBlocked(dst, src, 5); err != nil {
		t.Fatal(err)
	}
	f := func(ri, ci uint8) bool {
		r := int(ri) % 16
		c := int(ci) % 24
		return dst.At(c, r) == src.At(r, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransposeNaive1024(b *testing.B) {
	src := testsig.NewMatrix(1024, 1024, 1)
	dst := testsig.ZeroMatrix(1024, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Transpose(dst, src)
	}
}

func BenchmarkTransposeBlocked1024(b *testing.B) {
	src := testsig.NewMatrix(1024, 1024, 1)
	dst := testsig.ZeroMatrix(1024, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TransposeBlocked(dst, src, 64)
	}
}

// TestVerifySyntheticAcceptsCorrectTransposes runs every formulation
// through the verifier on square and non-square operands whose edges
// are not multiples of the block or strip size.
func TestVerifySyntheticAcceptsCorrectTransposes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {16, 16}, {37, 53}, {64, 29}} {
		rows, cols := dims[0], dims[1]
		for name, tr := range map[string]func(dst, src *testsig.Matrix) error{
			"naive":   Transpose,
			"blocked": func(dst, src *testsig.Matrix) error { return TransposeBlocked(dst, src, 16) },
			"strips":  func(dst, src *testsig.Matrix) error { return TransposeStrips(dst, src, 4) },
		} {
			if err := VerifySynthetic(rows, cols, tr); err != nil {
				t.Errorf("%dx%d %s: %v", rows, cols, name, err)
			}
		}
	}
}

// TestVerifySyntheticRejectsWrongTransposes proves the verifier catches
// the ways a transpose goes wrong: no transpose at all, two elements
// exchanged, one element never written, and a blocked loop whose edge
// bound stops one row short of the matrix.
func TestVerifySyntheticRejectsWrongTransposes(t *testing.T) {
	const rows, cols = 37, 53
	wrong := map[string]func(dst, src *testsig.Matrix) error{
		"plain copy": func(dst, src *testsig.Matrix) error {
			copy(dst.Data, src.Data)
			return nil
		},
		"swapped pair": func(dst, src *testsig.Matrix) error {
			if err := Transpose(dst, src); err != nil {
				return err
			}
			i, j := 5, len(dst.Data)-7
			if dst.Data[i] == dst.Data[j] {
				t.Fatal("test operand has equal elements at the swapped positions")
			}
			dst.Data[i], dst.Data[j] = dst.Data[j], dst.Data[i]
			return nil
		},
		"element left zero": func(dst, src *testsig.Matrix) error {
			if err := Transpose(dst, src); err != nil {
				return err
			}
			i := len(dst.Data) / 2
			if dst.Data[i] == 0 {
				t.Fatal("test operand is already zero at the dropped position")
			}
			dst.Data[i] = 0
			return nil
		},
		"blocked edge off by one": func(dst, src *testsig.Matrix) error {
			const block = 16
			for r0 := 0; r0 < src.Rows; r0 += block {
				r1 := min(r0+block, src.Rows-1) // bug: the last source row is never read
				for c0 := 0; c0 < src.Cols; c0 += block {
					c1 := min(c0+block, src.Cols)
					for r := r0; r < r1; r++ {
						for c := c0; c < c1; c++ {
							dst.Data[c*dst.Cols+r] = src.Data[r*src.Cols+c]
						}
					}
				}
			}
			return nil
		},
		"reshaped dst": func(dst, src *testsig.Matrix) error {
			if err := Transpose(dst, src); err != nil {
				return err
			}
			dst.Rows, dst.Cols = dst.Cols, dst.Rows
			return nil
		},
	}
	for name, tr := range wrong {
		if err := VerifySynthetic(rows, cols, tr); err == nil {
			t.Errorf("%s: VerifySynthetic accepted a wrong transpose", name)
		}
	}
}
