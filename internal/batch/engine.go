package batch

import (
	"fmt"
	"math/bits"

	"surfnet/internal/decoder"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// Stats counts the per-lane decode-path decisions of one Run. Each lane is
// decided once per decoding graph, so the three counters sum to 2×lanes.
type Stats struct {
	// FastLanes took the packed erasure-peeling fast path.
	FastLanes int
	// FallbackLanes fell back to the scalar decoder because their
	// syndromes touch non-erased growth.
	FallbackLanes int
	// EmptyLanes had no syndromes on the graph and needed no decode.
	EmptyLanes int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.FastLanes += o.FastLanes
	s.FallbackLanes += o.FallbackLanes
	s.EmptyLanes += o.EmptyLanes
}

// Engine decodes 64 Monte Carlo trials per Run call: packed sampling and
// syndrome extraction always cover all 64 lanes in O(qubits) word operations;
// the decode step takes the erasure-peeling fast path for lanes whose
// syndromes are fully explained by even-or-boundary erasure clusters and
// falls back to the scalar decoder, verbatim, for the rest. The logical
// verdict of every lane is bit-for-bit the scalar pipeline's verdict
// (decoder.DecodeFrameWith) on the identical error realization.
//
// An Engine is NOT safe for concurrent use: it owns its scratch arenas.
// Parallel sweeps give each worker its own Engine (sim.Scratch) and split
// the rng stream per batch index, never per worker.
type Engine struct {
	code    *surfacecode.Code
	dec     decoder.ScratchDecoder
	sampler *Sampler
	probs   []float64

	planes         *Planes
	residX, residZ []uint64
	parity         []uint64

	synByLane    [Lanes][]int
	erasedByLane [Lanes][]int32
	laneErased   []bool
	peel         *peeler
	pgs          [2]packedGraph
	scratch      *decoder.Scratch
}

// packedGraph caches one decoding graph's dense edge list in flat arrays so
// the packed folds and the per-lane peels skip the Edge struct round trip on
// every access.
type packedGraph struct {
	dg      *surfacecode.DecodingGraph
	u, v    []int32 // dense edge index -> endpoints
	id      []int32 // dense edge index -> data qubit id
	numReal int
}

func newPackedGraph(dg *surfacecode.DecodingGraph) packedGraph {
	nE := dg.G.NumEdges()
	pg := packedGraph{
		dg:      dg,
		u:       make([]int32, nE),
		v:       make([]int32, nE),
		id:      make([]int32, nE),
		numReal: dg.NumReal,
	}
	for ei := 0; ei < nE; ei++ {
		ed := dg.G.Edge(ei)
		pg.u[ei], pg.v[ei], pg.id[ei] = int32(ed.U), int32(ed.V), int32(ed.ID)
	}
	return pg
}

// NewEngine builds a packed engine for code under noise model nm, decoding
// with dec. Only decoders that pre-absorb erasures into the initial cluster
// support are accepted — decoder.UnionFind and decoder.SurfNet with
// FiniteErasureGrowth unset — because only for those is the erasure-peeling
// fast path provably verdict-identical to the scalar decode.
func NewEngine(code *surfacecode.Code, nm *surfacecode.NoiseModel, dec decoder.Decoder) (*Engine, error) {
	switch d := dec.(type) {
	case decoder.UnionFind:
	case decoder.SurfNet:
		if d.FiniteErasureGrowth {
			return nil, fmt.Errorf("batch: SurfNet with FiniteErasureGrowth grows erasures incrementally; the packed erasure fast path is only verdict-equivalent to decoders that pre-absorb erasures")
		}
	default:
		return nil, fmt.Errorf("batch: decoder %s is not supported by the packed engine (the erasure fast path requires erasure-pre-absorbing cluster growth)", dec.Name())
	}
	sd, ok := dec.(decoder.ScratchDecoder)
	if !ok {
		return nil, fmt.Errorf("batch: decoder %s does not support scratch decoding", dec.Name())
	}
	n := code.NumData()
	sampler, err := NewSampler(n, nm)
	if err != nil {
		return nil, err
	}
	nv := code.Graph(surfacecode.ZGraph).G.NumVertices()
	if x := code.Graph(surfacecode.XGraph).G.NumVertices(); x > nv {
		nv = x
	}
	e := &Engine{
		code:       code,
		dec:        sd,
		sampler:    sampler,
		probs:      nm.EdgeErrorProb(),
		planes:     NewPlanes(n),
		laneErased: make([]bool, n),
		peel:       newPeeler(nv),
		scratch:    decoder.NewScratch(),
	}
	e.pgs[0] = newPackedGraph(code.Graph(surfacecode.ZGraph))
	e.pgs[1] = newPackedGraph(code.Graph(surfacecode.XGraph))
	return e, nil
}

// Planes exposes the engine's bit planes for the batch sampled by the last
// Run — the equivalence tests unpack lanes from here to replay them through
// the scalar oracle. The planes are overwritten by the next Run.
func (e *Engine) Planes() *Planes { return e.planes }

// Run samples one packed batch of error realizations from src and decodes
// lanes [0, lanes). Bit l of the returned word is set when lane l suffered a
// logical error (on either graph) — the event the paper's logical error rate
// counts. Bits at and above lanes are always zero. Sampling always draws all
// 64 lanes so that the stream consumed per batch is independent of the
// requested lane count.
func (e *Engine) Run(src *rng.Source, lanes int) (failed uint64, stats Stats, err error) {
	if lanes <= 0 || lanes > Lanes {
		return 0, stats, fmt.Errorf("batch: lane count %d outside [1,%d]", lanes, Lanes)
	}
	active := LaneMask(lanes)
	e.sampler.SampleInto(e.planes, src)
	e.residX = append(e.residX[:0], e.planes.X...)
	e.residZ = append(e.residZ[:0], e.planes.Z...)

	// X-type components live on the Z-graph; corrections are X flips.
	if err := e.decodeGraph(surfacecode.ZGraph, e.residX, lanes, &stats); err != nil {
		return 0, stats, err
	}
	// Z-type components live on the X-graph; corrections are Z flips.
	if err := e.decodeGraph(surfacecode.XGraph, e.residZ, lanes, &stats); err != nil {
		return 0, stats, err
	}

	// Logical verdict: odd overlap of the residual with the homology cut,
	// folded across all lanes at once.
	var failX, failZ uint64
	for _, q := range e.code.Graph(surfacecode.ZGraph).CutQubits {
		failX ^= e.residX[q]
	}
	for _, q := range e.code.Graph(surfacecode.XGraph).CutQubits {
		failZ ^= e.residZ[q]
	}
	return (failX | failZ) & active, stats, nil
}

// decodeGraph extracts the packed syndromes of resid on one decoding graph,
// decodes every active lane, and applies the corrections to resid in place.
// On return the packed parity of resid is verified to be zero on all active
// lanes, mirroring the residual-syndrome check of the scalar pipeline.
func (e *Engine) decodeGraph(kind surfacecode.GraphKind, resid []uint64, lanes int, stats *Stats) error {
	dg := e.code.Graph(kind)
	pg := &e.pgs[kind-surfacecode.ZGraph]
	nv := dg.NumReal
	nE := len(pg.id)
	active := LaneMask(lanes)

	// Packed syndrome extraction: one XOR-fold over the edges covers all 64
	// lanes. Dense edge index ei is the data-qubit id (edges are added in
	// qubit order), so resid indexes directly.
	par := growWords(e.parity, nv)
	for ei := 0; ei < nE; ei++ {
		w := resid[pg.id[ei]]
		if u := int(pg.u[ei]); u < nv {
			par[u] ^= w
		}
		if v := int(pg.v[ei]); v < nv {
			par[v] ^= w
		}
	}
	e.parity = par

	// Transpose to per-lane syndrome lists in ascending vertex order — the
	// same output order as Code.Syndrome, which the fallback decoders and
	// the fast-path peel both observe.
	for l := 0; l < lanes; l++ {
		e.synByLane[l] = e.synByLane[l][:0]
	}
	for v := 0; v < nv; v++ {
		w := par[v] & active
		for w != 0 {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			e.synByLane[l] = append(e.synByLane[l], v)
		}
	}
	// Per-lane erased edge lists in ascending dense-index order — exactly
	// the order growClusters pre-grows erasures, so a fast-path peel sees a
	// byte-identical support.
	for l := 0; l < lanes; l++ {
		e.erasedByLane[l] = e.erasedByLane[l][:0]
	}
	for ei := 0; ei < nE; ei++ {
		w := e.planes.Erase[pg.id[ei]] & active
		for w != 0 {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			e.erasedByLane[l] = append(e.erasedByLane[l], int32(ei))
		}
	}

	for l := 0; l < lanes; l++ {
		syn := e.synByLane[l]
		if len(syn) == 0 {
			// Empty syndrome ⇒ empty correction (both scalar decoders
			// short-circuit identically). Any syndrome-free logical error
			// on erased qubits survives into the verdict fold.
			stats.EmptyLanes++
			continue
		}
		laneBit := uint64(1) << uint(l)

		// Fast path: peel the erased support with the version-stamped
		// packed peeler — O(|support|) per lane, no per-lane clearing. It
		// refuses exactly when growClusters would have grown beyond the
		// erasures (the cluster invariant fails); the lane then falls back
		// to the scalar decoder verbatim, which is the only point where
		// the dense per-qubit erasure mask is materialized.
		corr, ok := e.peel.peelLane(pg, e.erasedByLane[l], syn)
		if ok {
			stats.FastLanes++
		} else {
			stats.FallbackLanes++
			for _, ei := range e.erasedByLane[l] {
				e.laneErased[pg.id[ei]] = true
			}
			in := decoder.Input{
				Graph:     dg,
				Syndromes: syn,
				Erased:    e.laneErased,
				ErrorProb: e.probs,
			}
			var err error
			corr, err = e.dec.DecodeWith(in, e.scratch)
			for _, ei := range e.erasedByLane[l] {
				e.laneErased[pg.id[ei]] = false
			}
			if err != nil {
				return fmt.Errorf("batch: lane %d %v-graph fallback decode: %w", l, kind, err)
			}
		}
		for _, q := range corr {
			resid[q] ^= laneBit
		}
	}

	// Packed verification, the analogue of the scalar pipeline's residual
	// syndrome check: the corrected planes must be syndrome-free on every
	// active lane.
	for v := range par {
		par[v] = 0
	}
	for ei := 0; ei < nE; ei++ {
		w := resid[pg.id[ei]]
		if u := int(pg.u[ei]); u < nv {
			par[u] ^= w
		}
		if v := int(pg.v[ei]); v < nv {
			par[v] ^= w
		}
	}
	for v := 0; v < nv; v++ {
		if left := par[v] & active; left != 0 {
			return fmt.Errorf("batch: decoder %s left a %v-graph syndrome at vertex %d on lane %d",
				e.dec.Name(), kind, v, bits.TrailingZeros64(left))
		}
	}
	return nil
}
