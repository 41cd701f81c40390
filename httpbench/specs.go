package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/roofline"
	"sigkern/internal/svc"
)

// paperMachines is the Table 3 column order.
var paperMachines = []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"}

// pinnedCell is one Table 3 cell as the simulators produced it when the
// benchmark was defined (sigstudy -csv). Any drift is a wrong answer.
type pinnedCell struct {
	Cycles, Ops, Words uint64
}

var pinned = map[string]pinnedCell{
	"PPC/corner-turn":       {28097687, 2097152, 2097152},
	"PPC/cslc":              {12211444, 2298624, 1868800},
	"PPC/beam-steering":     {658611, 308736, 154368},
	"AltiVec/corner-turn":   {24624279, 2097152, 2097152},
	"AltiVec/cslc":          {2498356, 2298624, 1868800},
	"AltiVec/beam-steering": {349875, 308736, 154368},
	"VIRAM/corner-turn":     {591996, 2097152, 2097152},
	"VIRAM/cslc":            {479784, 2083712, 1270784},
	"VIRAM/beam-steering":   {44443, 308736, 154368},
	"Imagine/corner-turn":   {1256960, 2097152, 2097152},
	"Imagine/cslc":          {181552, 2083712, 1270784},
	"Imagine/beam-steering": {78008, 308736, 154368},
	"Raw/corner-turn":       {147564, 2097152, 2097152},
	"Raw/cslc":              {381491, 2298624, 1868800},
	"Raw/beam-steering":     {19648, 308736, 154368},
}

func cellKey(machine string, k core.KernelID) string { return machine + "/" + string(k) }

// paperSpecs returns the 15 Table 3 cells, machines outer, kernels inner.
func paperSpecs() []svc.JobSpec {
	var out []svc.JobSpec
	for _, m := range paperMachines {
		for _, k := range core.Kernels() {
			out = append(out, svc.JobSpec{Machine: m, Kernel: k})
		}
	}
	return out
}

// spellPaper encodes a paper cell in one of the equivalent spellings the
// API accepts: workload omitted, the paper workload written out, or an
// empty (all-default) config section for the cell's machine. All three
// normalize to the same job, so the seed changes the bytes on the wire
// but not the work.
func spellPaper(spec svc.JobSpec, rng *rand.Rand) svc.JobSpec {
	switch rng.Intn(3) {
	case 1:
		w := core.PaperWorkload()
		spec.Workload = &w
	case 2:
		section := map[string]string{"VIRAM": "viram", "Imagine": "imagine", "Raw": "raw"}[spec.Machine]
		if section != "" {
			var cs machines.ConfigSet
			if err := json.Unmarshal([]byte(`{"`+section+`":{}}`), &cs); err == nil {
				spec.Config = &cs
			}
		}
	}
	return spec
}

// variants hands out tiny beam-steering cells that no earlier call in
// the run returned, so each one is a cold simulation on the server. The
// i-th cell is a seeded permutation of i over the parameter space, so
// cells are distinct without remembering the ones handed out.
type variants struct {
	mu         sync.Mutex
	mul, off   uint64
	next1, dse uint64
}

// Variant parameter ranges. Design-space bases use Dwells = dseDwells,
// outside the range of plain cells, so the two never collide.
const (
	nElements   = 128 // 8..135
	nDirections = 4
	nDwells     = 2
	nShift      = 32
	nRounding   = 16
	dseDwells   = nDwells + 1
)

func newVariants(seed int64) *variants {
	rng := rand.New(rand.NewSource(seed))
	return &variants{mul: uint64(rng.Int63()), off: uint64(rng.Int63())}
}

// permute maps i onto 0..n-1, one to one for i < n.
func (v *variants) permute(i, n uint64) uint64 {
	a := v.mul % n
	for gcd(a, n) != 1 {
		a++
	}
	return (a*(i%n) + v.off) % n
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// beam decodes p into a tiny beam-steering workload.
func beam(p uint64, dwells int) core.Workload {
	w := core.PaperWorkload()
	w.Beam.Elements = 8 + int(p%nElements)
	p /= nElements
	w.Beam.Directions = 1 + int(p%nDirections)
	p /= nDirections
	w.Beam.ShiftBits = uint(p % nShift)
	p /= nShift
	w.Beam.Rounding = int32(p % nRounding)
	w.Beam.Dwells = dwells
	return w
}

const nBeam = nElements * nDirections * nShift * nRounding

// next returns a fresh tiny cell on one of the five machines.
func (v *variants) next() svc.JobSpec {
	v.mu.Lock()
	i := v.next1
	v.next1++
	v.mu.Unlock()
	p := v.permute(i, uint64(len(paperMachines))*nDwells*nBeam)
	m := paperMachines[p%uint64(len(paperMachines))]
	p /= uint64(len(paperMachines))
	w := beam(p/nDwells, 1+int(p%nDwells))
	return svc.JobSpec{Machine: m, Kernel: core.BeamSteering, Workload: &w}
}

// dseAxes are sweeps whose every value differs from the paper default,
// so no design point can run on a default machine instance.
var dseAxes = []struct {
	machine string
	axis    svc.DSEAxis
}{
	{"VIRAM", svc.DSEAxis{Param: "viram.Lanes", Values: []int{2, 4, 16}}},
	{"VIRAM", svc.DSEAxis{Param: "viram.MVL", Values: []int{16, 32, 128}}},
	{"Imagine", svc.DSEAxis{Param: "imagine.Clusters", Values: []int{2, 4, 16}}},
	{"Raw", svc.DSEAxis{Param: "raw.Mesh", Values: []int{2, 3, 8}}},
	{"PPC", svc.DSEAxis{Param: "ppc.IssueWidth", Values: []int{1, 3, 4}}},
}

// dseRequest builds one small sweep around a fresh tiny cell.
func (v *variants) dseRequest() svc.DSERequest {
	v.mu.Lock()
	i := v.dse
	v.dse++
	v.mu.Unlock()
	a := dseAxes[i%uint64(len(dseAxes))]
	w := beam(v.permute(i/uint64(len(dseAxes)), nBeam), dseDwells)
	base := svc.JobSpec{Machine: a.machine, Kernel: core.BeamSteering, Workload: &w}
	return svc.DSERequest{Base: base, Axes: []svc.DSEAxis{a.axis}}
}

func specKey(spec svc.JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec always marshals
	}
	return string(b)
}

// reference runs spec in process on a fresh machine built straight from
// the machines package — never through the service's factory, so an
// answer the service got wrong cannot also be the reference.
func reference(spec svc.JobSpec) (core.Result, error) {
	var m core.Machine
	var err error
	if spec.Config != nil {
		m, err = spec.Config.Machine(spec.Machine)
	} else {
		m, err = machines.ByName(spec.Machine)
	}
	if err != nil {
		return core.Result{}, err
	}
	w := core.PaperWorkload()
	if spec.Workload != nil {
		w = *spec.Workload
	}
	return core.Run(m, spec.Kernel, w)
}

// answer is one simulated result the service returned, kept until the
// reference pass. It holds no pointers, so the log can live outside the
// Go heap (see answerLog).
type answer struct {
	// packed is the spec (see pack); specs pack cannot express (design
	// points carrying a config) are in checker.full at index full-1.
	packed             uint64
	full               uint32
	what               uint8
	verified           bool
	cyclesOnly         bool // design points carry nothing but cycles
	cycles, ops, words uint64
	// detail is a hash of the breakdown and event counters.
	detail uint64
}

// pack encodes a spec that runs on paper hardware with the paper
// corner-turn and CSLC instances — every Table 3 cell and every tiny
// beam-steering cell — into 52 bits.
func pack(spec svc.JobSpec) (uint64, bool) {
	if spec.Config != nil {
		return 0, false
	}
	mi, ki := -1, -1
	for i, m := range paperMachines {
		if m == spec.Machine {
			mi = i
		}
	}
	for i, k := range core.Kernels() {
		if k == spec.Kernel {
			ki = i
		}
	}
	if mi < 0 || ki < 0 {
		return 0, false
	}
	p := uint64(mi) | uint64(ki)<<3
	if spec.Workload == nil {
		return p, true
	}
	w, paper := *spec.Workload, core.PaperWorkload()
	b := w.Beam
	if w.CornerTurn != paper.CornerTurn || w.CSLC != paper.CSLC || b.Elements >= 1<<16 ||
		b.Directions >= 1<<8 || b.Dwells >= 1<<8 || b.ShiftBits >= 1<<6 || b.Rounding < 0 || b.Rounding >= 1<<8 {
		return 0, false
	}
	return p | 1<<5 | uint64(b.Elements)<<6 | uint64(b.Directions)<<22 | uint64(b.Dwells)<<30 |
		uint64(b.ShiftBits)<<38 | uint64(b.Rounding)<<44, true
}

func unpack(p uint64) svc.JobSpec {
	spec := svc.JobSpec{Machine: paperMachines[p&7], Kernel: core.Kernels()[p>>3&3]}
	if p&(1<<5) != 0 {
		w := core.PaperWorkload()
		w.Beam.Elements = int(p >> 6 & 0xffff)
		w.Beam.Directions = int(p >> 22 & 0xff)
		w.Beam.Dwells = int(p >> 30 & 0xff)
		w.Beam.ShiftBits = uint(p >> 38 & 0x3f)
		w.Beam.Rounding = int32(p >> 44 & 0xff)
		spec.Workload = &w
	}
	return spec
}

func detailHash(r core.Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Breakdown.String()))
	h.Write([]byte{'|'})
	h.Write([]byte(r.Stats.String()))
	return h.Sum64()
}

// checker is the correctness gate: it compares every answer with the
// pinned Table 3 cells or an in-process run of the same spec, and
// counts the answers whose cycle breakdown or event counters differ
// from in-process (the results lose them in JSON today).
type checker struct {
	mu         sync.Mutex
	answers    *answerLog
	full       []svc.JobSpec
	whats      []string
	mismatches []string
	count      int
	lost       int // answers whose breakdown/stats differ from in-process
	compared   int // answers compared for breakdown/stats
}

func newChecker() (*checker, error) {
	log, err := newAnswerLog(maxAnswers)
	if err != nil {
		return nil, err
	}
	return &checker{answers: log}, nil
}

func (c *checker) record(what string, spec svc.JobSpec, a answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := pack(spec); ok {
		a.packed = p
	} else {
		c.full = append(c.full, spec)
		a.full = uint32(len(c.full))
	}
	a.what = uint8(len(c.whats))
	for i, w := range c.whats {
		if w == what {
			a.what = uint8(i)
		}
	}
	if int(a.what) == len(c.whats) {
		c.whats = append(c.whats, what)
	}
	if !c.answers.add(a) {
		c.count++
		if len(c.mismatches) < 20 {
			c.mismatches = append(c.mismatches, fmt.Sprintf("more than %d answers: the answer log is full", maxAnswers))
		}
	}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.mismatches) < 20 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count == 0
}

// simulated records a full simulated result for spec. Paper cells are
// also checked against the pinned Table 3 numbers on the spot.
func (c *checker) simulated(what string, spec svc.JobSpec, res core.Result) {
	if spec.Workload == nil && spec.Config == nil {
		p, ok := pinned[cellKey(spec.Machine, spec.Kernel)]
		if !ok {
			c.fail("%s: %s/%s is not a Table 3 cell", what, spec.Machine, spec.Kernel)
		} else if res.Cycles != p.Cycles || res.Ops != p.Ops || res.Words != p.Words || !res.Verified {
			c.fail("%s: %s/%s answered cycles %d ops %d words %d verified %v, Table 3 has %d/%d/%d",
				what, spec.Machine, spec.Kernel, res.Cycles, res.Ops, res.Words, res.Verified, p.Cycles, p.Ops, p.Words)
		}
	}
	if res.Machine != spec.Machine || res.Kernel != spec.Kernel {
		c.fail("%s: asked for %s/%s, answered %s/%s", what, spec.Machine, spec.Kernel, res.Machine, res.Kernel)
	}
	c.record(what, spec, answer{cycles: res.Cycles, ops: res.Ops, words: res.Words, verified: res.Verified,
		detail: detailHash(res)})
}

// cycles records a design point's cycle count for spec.
func (c *checker) cycles(what string, spec svc.JobSpec, cycles uint64) {
	c.record(what, spec, answer{cycles: cycles, cyclesOnly: true})
}

// estimate checks an estimate-tier answer against roofline.ForJob.
func (c *checker) estimate(what string, spec svc.JobSpec, res core.Result) {
	w := core.PaperWorkload()
	if spec.Workload != nil {
		w = *spec.Workload
	}
	est, err := roofline.ForJob(spec.Machine, spec.Kernel, w)
	if err != nil {
		c.fail("%s: roofline reference: %v", what, err)
		return
	}
	if res.Cycles != est.Cycles || res.Ops != est.Ops || res.Words != est.Words ||
		res.Machine != spec.Machine || res.Kernel != spec.Kernel {
		c.fail("%s: estimate %s/%s cycles %d ops %d words %d, model has %d/%d/%d",
			what, spec.Machine, spec.Kernel, res.Cycles, res.Ops, res.Words, est.Cycles, est.Ops, est.Words)
	}
}

// verify runs the in-process reference once per distinct spec and
// compares every recorded answer with it.
func (c *checker) verify() {
	c.mu.Lock()
	answers := c.answers.all()
	c.mu.Unlock()
	byKey := map[string][]answer{}
	var keys []string
	for _, a := range answers {
		k := strconv.FormatUint(a.packed, 16)
		if a.full != 0 {
			k = specKey(c.full[a.full-1])
		}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], a)
	}
	sort.Strings(keys)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				c.verifyGroup(byKey[keys[i]])
			}
		}()
	}
	wg.Wait()
}

// verifyGroup compares the answers for one spec with one in-process run.
func (c *checker) verifyGroup(group []answer) {
	spec := unpack(group[0].packed)
	if group[0].full != 0 {
		spec = c.full[group[0].full-1]
	}
	what := c.whats[group[0].what]
	ref, err := reference(spec)
	if err != nil {
		c.fail("%s: in-process reference for %s/%s: %v", what, spec.Machine, spec.Kernel, err)
		return
	}
	refDetail := detailHash(ref)
	for _, a := range group {
		if a.cyclesOnly {
			if a.cycles != ref.Cycles {
				c.fail("%s: %s/%s cycles %d, in-process %d", c.whats[a.what], spec.Machine, spec.Kernel, a.cycles, ref.Cycles)
			}
			continue
		}
		if a.cycles != ref.Cycles || a.ops != ref.Ops || a.words != ref.Words || a.verified != ref.Verified {
			c.fail("%s: %s/%s answered cycles %d ops %d words %d verified %v, in-process %d/%d/%d/%v",
				c.whats[a.what], spec.Machine, spec.Kernel, a.cycles, a.ops, a.words, a.verified,
				ref.Cycles, ref.Ops, ref.Words, ref.Verified)
		}
		c.mu.Lock()
		c.compared++
		if a.detail != refDetail {
			c.lost++
		}
		c.mu.Unlock()
	}
}
