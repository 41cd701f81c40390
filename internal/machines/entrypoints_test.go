package machines

import (
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/ppc"
	"sigkern/internal/rawsim"
	"sigkern/internal/viram"
)

// entryPoint runs one exported kernel entry point on a small valid
// instance, or on an invalid one when bad is set.
type entryPoint func(bad bool) (core.Result, error)

func entry[S any](good, bad S, run func(S) (core.Result, error)) entryPoint {
	return func(b bool) (core.Result, error) {
		if b {
			return run(bad)
		}
		return run(good)
	}
}

// TestEveryEntryPointVerifiesAndRejects covers every exported kernel
// entry point of the four machine packages, ablation variants included:
// a small valid instance must come back verified, an invalid one must
// be an error (never a panic or an unverified result).
func TestEveryEntryPointVerifiesAndRejects(t *testing.T) {
	var (
		ct    = cornerturn.Spec{Rows: 128, Cols: 128, BlockSize: 16}
		ctBad = cornerturn.Spec{Rows: 0, Cols: 128, BlockSize: 16}
		cs    = cslc.Spec{MainChannels: 2, AuxChannels: 2, Samples: 1024, SubBands: 8, FFTSize: 128}
		csBad = cslc.Spec{MainChannels: 2, AuxChannels: 2, Samples: 1024, SubBands: 8, FFTSize: 1}
		bs    = beamsteer.Spec{Elements: 64, Directions: 2, Dwells: 3, ShiftBits: 2, Rounding: 2}
		bsBad = beamsteer.Spec{Elements: 64, Directions: 0, Dwells: 3}
		mm    = matmul.Spec{M: 64, N: 64, K: 64, BlockSize: 32}
		mmBad = matmul.Spec{M: 64, N: 64, K: 64, BlockSize: 0}
		fb    = pfb.Workload{Spec: pfb.Spec{Channels: 16, Taps: 4}, Samples: 16 * 64}
		fbBad = pfb.Workload{Spec: pfb.Spec{Channels: 16, Taps: 4}, Samples: 10}
	)
	pp := ppc.New(ppc.DefaultConfig(ppc.Scalar))
	av := ppc.New(ppc.DefaultConfig(ppc.AltiVec))
	vi := viram.New(viram.DefaultConfig())
	im := imagine.New(imagine.DefaultConfig())
	rw := rawsim.New(rawsim.DefaultConfig())
	pipeline := func(w pfb.Workload) (core.Result, error) {
		return im.RunPipeline(w, bs, equalize.DefaultSpec())
	}

	cases := []struct {
		name string
		run  entryPoint
	}{
		{"PPC.RunCornerTurn", entry(ct, ctBad, pp.RunCornerTurn)},
		{"PPC.RunCSLC", entry(cs, csBad, pp.RunCSLC)},
		{"PPC.RunBeamSteering", entry(bs, bsBad, pp.RunBeamSteering)},
		{"PPC.RunMatMul", entry(mm, mmBad, pp.RunMatMul)},
		{"PPC.RunPFB", entry(fb, fbBad, pp.RunPFB)},
		{"AltiVec.RunCornerTurn", entry(ct, ctBad, av.RunCornerTurn)},
		{"AltiVec.RunCSLC", entry(cs, csBad, av.RunCSLC)},
		{"AltiVec.RunBeamSteering", entry(bs, bsBad, av.RunBeamSteering)},
		{"AltiVec.RunMatMul", entry(mm, mmBad, av.RunMatMul)},
		{"AltiVec.RunPFB", entry(fb, fbBad, av.RunPFB)},
		{"VIRAM.RunCornerTurn", entry(ct, ctBad, vi.RunCornerTurn)},
		{"VIRAM.RunCornerTurnPermute", entry(ct, ctBad, vi.RunCornerTurnPermute)},
		{"VIRAM.RunCSLC", entry(cs, csBad, vi.RunCSLC)},
		{"VIRAM.RunBeamSteering", entry(bs, bsBad, vi.RunBeamSteering)},
		{"VIRAM.RunMatMul", entry(mm, mmBad, vi.RunMatMul)},
		{"VIRAM.RunPFB", entry(fb, fbBad, vi.RunPFB)},
		{"Imagine.RunCornerTurn", entry(ct, ctBad, im.RunCornerTurn)},
		{"Imagine.RunCSLC", entry(cs, csBad, im.RunCSLC)},
		{"Imagine.RunCSLCIndependentFFTs", entry(cs, csBad, im.RunCSLCIndependentFFTs)},
		{"Imagine.RunBeamSteering", entry(bs, bsBad, im.RunBeamSteering)},
		{"Imagine.RunBeamSteeringSRFTables", entry(bs, bsBad, im.RunBeamSteeringSRFTables)},
		{"Imagine.RunBeamSteeringPipelined", entry(bs, bsBad, im.RunBeamSteeringPipelined)},
		{"Imagine.RunMatMul", entry(mm, mmBad, im.RunMatMul)},
		{"Imagine.RunPFB", entry(fb, fbBad, im.RunPFB)},
		{"Imagine.RunPipeline", entry(fb, fbBad, pipeline)},
		{"Raw.RunCornerTurn", entry(ct, ctBad, rw.RunCornerTurn)},
		{"Raw.RunCSLC", entry(cs, csBad, rw.RunCSLC)},
		{"Raw.RunCSLCImbalanced", entry(cs, csBad, rw.RunCSLCImbalanced)},
		{"Raw.RunCSLCRadix4", entry(cs, csBad, rw.RunCSLCRadix4)},
		{"Raw.RunCSLCDMA", entry(cs, csBad, rw.RunCSLCDMA)},
		{"Raw.RunCSLCStream", entry(cs, csBad, rw.RunCSLCStream)},
		{"Raw.RunBeamSteering", entry(bs, bsBad, rw.RunBeamSteering)},
		{"Raw.RunBeamSteeringMIMD", entry(bs, bsBad, rw.RunBeamSteeringMIMD)},
		{"Raw.RunMatMul", entry(mm, mmBad, rw.RunMatMul)},
		{"Raw.RunPFB", entry(fb, fbBad, rw.RunPFB)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.run(true); err == nil {
				t.Error("invalid spec accepted")
			}
			r, err := c.run(false)
			if err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
			if !r.Verified || r.Cycles == 0 {
				t.Errorf("verified=%v cycles=%d", r.Verified, r.Cycles)
			}
		})
	}
}
