// Package pfb implements a polyphase filter bank channelizer — the
// kernel the paper names as the stage that would precede beam steering
// in a real radar pipeline ("the beam steering kernel would stream its
// inputs from the proceeding kernel in the application (e.g., a
// poly-phase filter bank)").
//
// The channelizer splits a wideband stream into Channels equally spaced
// sub-bands: the input is commutated into Channels polyphase branches,
// each branch runs a Taps-long FIR drawn from a windowed-sinc prototype,
// and an FFT across branches produces one output frame per Channels
// input samples.
package pfb

import (
	"fmt"
	"math"

	"sigkern/internal/kernels/fft"
)

// Spec describes one channelizer.
type Spec struct {
	// Channels is the number of output sub-bands (a power of two, for
	// the FFT across branches).
	Channels int
	// Taps is the FIR length per polyphase branch; the prototype filter
	// has Channels*Taps coefficients.
	Taps int
}

// DefaultSpec returns the channelizer used by the pipeline example:
// 64 channels, 8 taps per branch (a 512-tap prototype).
func DefaultSpec() Spec { return Spec{Channels: 64, Taps: 8} }

// Validate reports whether the spec is realizable.
func (s Spec) Validate() error {
	if s.Channels < 2 || s.Taps < 1 {
		return fmt.Errorf("pfb: %d channels x %d taps", s.Channels, s.Taps)
	}
	if s.Channels&(s.Channels-1) != 0 {
		return fmt.Errorf("pfb: %d channels not a power of two", s.Channels)
	}
	return nil
}

// PrototypeLen returns the prototype filter length.
func (s Spec) PrototypeLen() int { return s.Channels * s.Taps }

// OpsPerFrame returns the real operations per output frame: the FIR
// (4 real ops per complex-sample MAC against a real coefficient) plus
// the cross-branch FFT.
func (s Spec) OpsPerFrame() uint64 {
	fir := uint64(4 * s.Channels * s.Taps)
	plan := fft.MustPlan(s.Channels, fft.Radix2, false)
	return fir + plan.Counts().Flops()
}

// Workload describes a timed channelizer run: the spec plus the input
// length in samples.
type Workload struct {
	Spec
	// Samples is the wideband input length (Channels*1024 by default:
	// about a thousand output frames).
	Samples int
}

// DefaultWorkload returns the timing workload used by the extension
// experiments.
func DefaultWorkload() Workload {
	s := DefaultSpec()
	return Workload{Spec: s, Samples: s.Channels * 1024}
}

// ValidateWorkload checks the spec and that at least one frame fits.
func (w Workload) ValidateWorkload() error {
	if err := w.Spec.Validate(); err != nil {
		return err
	}
	if w.Samples < w.PrototypeLen() {
		return fmt.Errorf("pfb: %d samples shorter than the %d-tap prototype",
			w.Samples, w.PrototypeLen())
	}
	return nil
}

// FrameCount returns the frames the workload produces.
func (w Workload) FrameCount() int {
	return (w.Samples-w.PrototypeLen())/w.Channels + 1
}

// TotalOps returns the workload's real-operation count.
func (w Workload) TotalOps() uint64 {
	return uint64(w.FrameCount()) * w.OpsPerFrame()
}

// Words returns the workload's streaming memory traffic in 32-bit
// words: every complex input sample read once (two words) and every
// complex output-frame bin written once (two words). The prototype
// coefficients are reused across frames and excluded, matching the
// compulsory-traffic convention of the analytic model.
func (w Workload) Words() uint64 {
	in := 2 * uint64(w.Samples)
	out := 2 * uint64(w.FrameCount()) * uint64(w.Channels)
	return in + out
}

// Verify validates the workload, channelizes a deterministic two-tone
// input and proves the fast path against DirectFrame on a sample of
// frames; machine models use it as their functional-verification step.
func (w Workload) Verify() error {
	if err := w.ValidateWorkload(); err != nil {
		return err
	}
	b, err := New(w.Spec)
	if err != nil {
		return err
	}
	x := make([]complex128, w.Samples)
	f1 := (float64(w.Channels/4) + 0.2) / float64(w.Channels)
	f2 := float64(w.Channels/2) / float64(w.Channels)
	for i := range x {
		a1 := 2 * math.Pi * f1 * float64(i)
		a2 := 2 * math.Pi * f2 * float64(i)
		x[i] = complex(math.Cos(a1)+0.5*math.Cos(a2), math.Sin(a1)+0.5*math.Sin(a2))
	}
	frames, err := b.Process(x)
	if err != nil {
		return err
	}
	for _, f := range []int{0, len(frames) / 2, len(frames) - 1} {
		want, err := b.DirectFrame(x, f)
		if err != nil {
			return err
		}
		for c := range want {
			d := frames[f][c] - want[c]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-16 {
				return fmt.Errorf("pfb: frame %d channel %d mismatch", f, c)
			}
		}
	}
	return nil
}

// Bank is a configured channelizer. It is not safe for concurrent use.
type Bank struct {
	spec  Spec
	proto []float64 // prototype filter, windowed sinc
	plan  *fft.Plan
}

// New builds a channelizer with a Hann-windowed sinc prototype whose
// cutoff is half a channel width.
func New(spec Spec) (*Bank, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.PrototypeLen()
	proto := make([]float64, n)
	cutoff := 1.0 / float64(spec.Channels)
	for i := 0; i < n; i++ {
		t := float64(i) - float64(n-1)/2
		// sinc(cutoff * t), normalized so each branch sums to ~1.
		var s float64
		if t == 0 {
			s = cutoff
		} else {
			s = math.Sin(math.Pi*cutoff*t) / (math.Pi * t)
		}
		w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		proto[i] = s * w * float64(spec.Channels)
	}
	plan, err := fft.NewPlan(spec.Channels, fft.Radix2, false)
	if err != nil {
		return nil, err
	}
	return &Bank{spec: spec, proto: proto, plan: plan}, nil
}

// Spec returns the bank's configuration.
func (b *Bank) Spec() Spec { return b.spec }

// Frames returns how many output frames Process will produce for n input
// samples.
func (b *Bank) Frames(n int) int {
	usable := n - b.spec.PrototypeLen()
	if usable < 0 {
		return 0
	}
	return usable/b.spec.Channels + 1
}

// Process channelizes x: the result is indexed [frame][channel].
func (b *Bank) Process(x []complex128) ([][]complex128, error) {
	m := b.spec.Channels
	taps := b.spec.Taps
	frames := b.Frames(len(x))
	if frames == 0 {
		return nil, fmt.Errorf("pfb: need at least %d samples, got %d", b.spec.PrototypeLen(), len(x))
	}
	out := make([][]complex128, frames)
	branch := make([]complex128, m)
	for f := 0; f < frames; f++ {
		base := f * m
		// Polyphase FIR: branch p filters the samples x[base+p],
		// x[base+p+M], ... with every M-th prototype coefficient.
		for p := 0; p < m; p++ {
			var acc complex128
			for t := 0; t < taps; t++ {
				acc += x[base+p+t*m] * complex(b.proto[p+t*m], 0)
			}
			branch[p] = acc
		}
		frame := make([]complex128, m)
		if err := b.plan.Transform(frame, branch); err != nil {
			return nil, err
		}
		out[f] = frame
	}
	return out, nil
}

// ChannelOf returns the output channel a normalized frequency f in
// [0, 1) lands in.
func (b *Bank) ChannelOf(f float64) int {
	c := int(math.Mod(f, 1)*float64(b.spec.Channels) + 0.5)
	return c % b.spec.Channels
}

// DirectFrame computes one frame by the defining formula (no polyphase
// factorization): channel c of frame f is
// sum_i proto[i] * x[f*M+i] * exp(-2*pi*j*c*((f*M+i) offset))
// restricted to the branch structure. It is the golden reference for
// Process and is O(M^2 * taps).
func (b *Bank) DirectFrame(x []complex128, f int) ([]complex128, error) {
	m := b.spec.Channels
	if (f+b.spec.Taps)*m > len(x)+m-1 {
		return nil, fmt.Errorf("pfb: frame %d out of range", f)
	}
	base := f * m
	// Branch sums, then an explicit DFT (the reference avoids the fast
	// transform path entirely).
	branch := make([]complex128, m)
	for p := 0; p < m; p++ {
		var acc complex128
		for t := 0; t < b.spec.Taps; t++ {
			acc += x[base+p+t*m] * complex(b.proto[p+t*m], 0)
		}
		branch[p] = acc
	}
	return fft.NaiveDFT(branch), nil
}
