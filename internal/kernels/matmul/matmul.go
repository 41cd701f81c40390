// Package matmul implements dense matrix multiplication, the extension
// kernel the paper points at through its Raw citation ("Several kernels
// including matrix multiplication are implemented on Raw and the results
// are reported in [16]"). Unlike the three headline kernels it has high
// arithmetic intensity (2K ops per output word), so it probes the
// machines' compute organization rather than their memory systems.
//
// Data is float64 holding small integers, so every machine's functional
// result is exact and comparable by checksum.
package matmul

import (
	"fmt"

	"sigkern/internal/sim"
)

// Spec describes one multiplication C[MxN] = A[MxK] * B[KxN].
type Spec struct {
	M, N, K int
	// BlockSize is the tile edge used by blocked implementations.
	BlockSize int
}

// DefaultSpec returns the 256x256x256 instance used by the extension
// experiments: 16.8M multiply-adds, large enough that blocking matters
// and small enough to simulate in seconds.
func DefaultSpec() Spec { return Spec{M: 256, N: 256, K: 256, BlockSize: 64} }

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.M <= 0 || s.N <= 0 || s.K <= 0 {
		return fmt.Errorf("matmul: dimensions %dx%dx%d", s.M, s.N, s.K)
	}
	if s.BlockSize <= 0 {
		return fmt.Errorf("matmul: block size %d", s.BlockSize)
	}
	return nil
}

// MACs returns the multiply-add count.
func (s Spec) MACs() uint64 { return uint64(s.M) * uint64(s.N) * uint64(s.K) }

// Flops returns the real-operation count (a MAC is a multiply and an add).
func (s Spec) Flops() uint64 { return 2 * s.MACs() }

// MinWords returns the compulsory memory traffic in 32-bit words: each
// operand read once and the product written once, the floor a blocked
// implementation with perfect reuse approaches. With the default spec
// the arithmetic intensity Flops/MinWords is ~170, so the analytic
// bound is compute-side on every machine.
func (s Spec) MinWords() uint64 {
	return uint64(s.M)*uint64(s.K) + uint64(s.K)*uint64(s.N) + uint64(s.M)*uint64(s.N)
}

// Mat is a dense row-major float64 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a Rows x Cols matrix of small deterministic integers
// (|v| <= 8), so products of 256-term dot products stay exactly
// representable.
func NewMat(rows, cols int, seed uint64) *Mat {
	p := sim.NewPRNG(seed)
	m := &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range m.Data {
		m.Data[i] = float64(p.Intn(17) - 8)
	}
	return m
}

// ZeroMat returns an all-zero matrix.
func ZeroMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Multiply computes dst = a*b with the naive triple loop; it is the
// golden reference.
func Multiply(dst, a, b *Mat) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matmul: shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range crow {
			crow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return nil
}

// MultiplyBlocked computes dst = a*b in block x block tiles, the access
// order the cache-based and tile-based machines use.
func MultiplyBlocked(dst, a, b *Mat, block int) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matmul: shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols)
	}
	if block <= 0 {
		return fmt.Errorf("matmul: block %d", block)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i0 := 0; i0 < a.Rows; i0 += block {
		i1 := min(i0+block, a.Rows)
		for k0 := 0; k0 < a.Cols; k0 += block {
			k1 := min(k0+block, a.Cols)
			for j0 := 0; j0 < b.Cols; j0 += block {
				j1 := min(j0+block, b.Cols)
				for i := i0; i < i1; i++ {
					for k := k0; k < k1; k++ {
						av := a.At(i, k)
						if av == 0 {
							continue
						}
						for j := j0; j < j1; j++ {
							dst.Data[i*dst.Cols+j] += av * b.At(k, j)
						}
					}
				}
			}
		}
	}
	return nil
}

// Checksum digests a matrix for cross-machine verification. Values are
// integers by construction, so the digest is exact.
func Checksum(m *Mat) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(m.Rows))) * prime
	h = (h ^ uint64(uint32(m.Cols))) * prime
	for _, v := range m.Data {
		h = (h ^ uint64(int64(v))) * prime
	}
	return h
}

// VerifyBlocked validates spec, runs the functional multiply and proves
// the blocked variant against the naive reference; machine models call
// it as their functional-verification step.
func VerifyBlocked(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	a := NewMat(spec.M, spec.K, 1)
	b := NewMat(spec.K, spec.N, 2)
	ref := ZeroMat(spec.M, spec.N)
	if err := Multiply(ref, a, b); err != nil {
		return err
	}
	got := ZeroMat(spec.M, spec.N)
	if err := MultiplyBlocked(got, a, b, spec.BlockSize); err != nil {
		return err
	}
	if Checksum(got) != Checksum(ref) {
		return fmt.Errorf("matmul: blocked result does not match reference")
	}
	return nil
}
