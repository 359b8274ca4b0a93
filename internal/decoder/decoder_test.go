package decoder

import (
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

var allDecoders = []Decoder{MWPM{}, UnionFind{}, SurfNet{}}

// uniformInput builds a decoding Input for code c with uniform error prob p
// and the given erasure mask and syndromes.
func uniformInput(c *surfacecode.Code, kind surfacecode.GraphKind, syn []int, erased []bool, p float64) Input {
	probs := make([]float64, c.NumData())
	for i := range probs {
		probs[i] = p
	}
	if erased == nil {
		erased = make([]bool, c.NumData())
	}
	return Input{Graph: c.Graph(kind), Syndromes: syn, Erased: erased, ErrorProb: probs}
}

func TestValidation(t *testing.T) {
	c := surfacecode.MustNew(3, surfacecode.CoreLShape)
	for _, dec := range allDecoders {
		if _, err := dec.Decode(Input{}); err == nil {
			t.Errorf("%s: nil graph should fail", dec.Name())
		}
		in := uniformInput(c, surfacecode.ZGraph, []int{999}, nil, 0.1)
		if _, err := dec.Decode(in); err == nil {
			t.Errorf("%s: out-of-range syndrome should fail", dec.Name())
		}
		in = uniformInput(c, surfacecode.ZGraph, nil, nil, 0.1)
		in.Erased = in.Erased[:2]
		if _, err := dec.Decode(in); err == nil {
			t.Errorf("%s: short erasure mask should fail", dec.Name())
		}
	}
}

func TestEmptySyndrome(t *testing.T) {
	c := surfacecode.MustNew(3, surfacecode.CoreLShape)
	for _, dec := range allDecoders {
		corr, err := dec.Decode(uniformInput(c, surfacecode.ZGraph, nil, nil, 0.1))
		if err != nil || len(corr) != 0 {
			t.Errorf("%s: empty syndrome gave corr=%v err=%v", dec.Name(), corr, err)
		}
	}
}

func TestSingleErrorsAlwaysCorrected(t *testing.T) {
	// Any single Pauli error on any qubit must be corrected without a
	// logical error at distance >= 3, by every decoder.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	probs := make([]float64, c.NumData())
	for i := range probs {
		probs[i] = 0.05
	}
	erased := make([]bool, c.NumData())
	for _, dec := range allDecoders {
		for q := 0; q < c.NumData(); q++ {
			for _, p := range []quantum.Pauli{quantum.X, quantum.Y, quantum.Z} {
				f := quantum.NewFrame(c.NumData())
				f[q] = p
				res, _, err := DecodeFrameWith(c, dec, f, erased, probs, nil, nil)
				if err != nil {
					t.Fatalf("%s: qubit %d %v: %v", dec.Name(), q, p, err)
				}
				if res.Failed() {
					t.Errorf("%s: single %v on qubit %d caused a logical error", dec.Name(), p, q)
				}
			}
		}
	}
}

func TestRandomErrorsAlwaysValid(t *testing.T) {
	// Decoders must clear every syndrome (DecodeFrameWith errors otherwise)
	// on random Pauli+erasure inputs of varying rates and distances.
	src := rng.New(808)
	for _, d := range []int{2, 3, 4, 5, 7} {
		c := surfacecode.MustNew(d, surfacecode.CoreLShape)
		for _, p := range []float64{0.02, 0.08, 0.15} {
			for _, e := range []float64{0, 0.15, 0.4} {
				nm := surfacecode.UniformNoise(c, p, e)
				probs := nm.EdgeErrorProb()
				for trial := 0; trial < 12; trial++ {
					f, erased := nm.Sample(src.SplitN("t", d*1000+trial))
					for _, dec := range allDecoders {
						if _, _, err := DecodeFrameWith(c, dec, f, erased, probs, nil, nil); err != nil {
							t.Fatalf("%s d=%d p=%v e=%v trial %d: %v",
								dec.Name(), d, p, e, trial, err)
						}
					}
				}
			}
		}
	}
}

func TestMWPMPrefersShortPath(t *testing.T) {
	// Two adjacent syndromes from one bulk error: the correction must be
	// that single qubit, not a long detour.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	q := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3}) // bulk vertical data qubit
	f := quantum.NewFrame(c.NumData())
	f[q] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f)
	if len(syn) != 2 {
		t.Fatalf("expected 2 syndromes, got %d", len(syn))
	}
	corr, err := MWPM{}.Decode(uniformInput(c, surfacecode.ZGraph, syn, nil, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 1 || corr[0] != q {
		t.Fatalf("correction = %v, want [%d]", corr, q)
	}
}

func TestMWPMBoundaryMatch(t *testing.T) {
	// An error on a boundary qubit yields one syndrome; the cheapest fix
	// is matching it straight back to the boundary.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	q := c.DataIndex(surfacecode.Coord{Row: 4, Col: 0})
	f := quantum.NewFrame(c.NumData())
	f[q] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f)
	if len(syn) != 1 {
		t.Fatalf("expected 1 syndrome, got %d", len(syn))
	}
	corr, err := MWPM{}.Decode(uniformInput(c, surfacecode.ZGraph, syn, nil, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 1 || corr[0] != q {
		t.Fatalf("correction = %v, want [%d]", corr, q)
	}
}

func TestWeightsSteerMWPM(t *testing.T) {
	// Two syndromes two steps apart; the direct path runs through a qubit
	// with tiny error probability while a known erasure detour exists.
	// With fidelity weighting the decoder must route around the reliable
	// qubit... we verify the simpler directional fact: marking the direct
	// path as erased makes the decoder choose it, and marking it as
	// near-perfect makes the decoder avoid it.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	qa := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3})
	qb := c.DataIndex(surfacecode.Coord{Row: 5, Col: 3})
	f := quantum.NewFrame(c.NumData())
	f[qa] = quantum.X
	f[qb] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f) // two syndromes, distance 2
	if len(syn) != 2 {
		t.Fatalf("expected 2 syndromes, got %d", len(syn))
	}
	in := uniformInput(c, surfacecode.ZGraph, syn, nil, 0.05)
	in.Erased[qa] = true
	in.Erased[qb] = true
	corr, err := MWPM{}.Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, q := range corr {
		got[q] = true
	}
	if len(corr) != 2 || !got[qa] || !got[qb] {
		t.Fatalf("correction = %v, want the erased direct path [%d %d]", corr, qa, qb)
	}
}

func TestSurfNetPrefersErasures(t *testing.T) {
	// Same two-syndrome setup: when the connecting path is erased, the
	// SurfNet decoder must grow through it quickly and correct exactly
	// there.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	qa := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3})
	qb := c.DataIndex(surfacecode.Coord{Row: 5, Col: 3})
	f := quantum.NewFrame(c.NumData())
	f[qa] = quantum.X
	f[qb] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f)
	in := uniformInput(c, surfacecode.ZGraph, syn, nil, 0.02)
	in.Erased[qa] = true
	in.Erased[qb] = true
	corr, err := SurfNet{}.Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	// The residual must clear the syndrome and not wrap a logical.
	res := f.Clone()
	for _, q := range corr {
		res.Apply(q, quantum.X)
	}
	if len(c.Syndrome(surfacecode.ZGraph, res)) != 0 {
		t.Fatal("correction does not clear the syndrome")
	}
	if c.HasLogicalError(surfacecode.ZGraph, res) {
		t.Fatal("erasure-guided correction wrapped a logical operator")
	}
}

func TestErasureOnlyInputs(t *testing.T) {
	// Erasures with no syndromes: nothing to correct, but the UF decoder
	// pre-grows erasure support and must still return cleanly.
	c := surfacecode.MustNew(3, surfacecode.CoreLShape)
	erased := make([]bool, c.NumData())
	erased[0] = true
	erased[5] = true
	for _, dec := range allDecoders {
		corr, err := dec.Decode(uniformInput(c, surfacecode.ZGraph, nil, erased, 0.05))
		if err != nil {
			t.Errorf("%s: erasure-only decode failed: %v", dec.Name(), err)
		}
		if len(corr) != 0 {
			t.Errorf("%s: erasure-only decode returned corrections %v", dec.Name(), corr)
		}
	}
}

func TestPeelHandBuilt(t *testing.T) {
	// Chain of two vertical qubits between three Z-ancillas; syndromes at
	// the two ends. Peeling over exactly that support must flip both.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	qa := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3})
	qb := c.DataIndex(surfacecode.Coord{Row: 5, Col: 3})
	f := quantum.NewFrame(c.NumData())
	f[qa] = quantum.X
	f[qb] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f)
	in := uniformInput(c, surfacecode.ZGraph, syn, nil, 0.05)
	// Dense edge indices equal data-qubit ids in construction order.
	corr, err := peel(in, []int{qa, qb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, q := range corr {
		got[q] = true
	}
	if len(corr) != 2 || !got[qa] || !got[qb] {
		t.Fatalf("peel correction = %v, want [%d %d]", corr, qa, qb)
	}
}

func TestPeelDetectsBadSupport(t *testing.T) {
	// A lone syndrome with support that reaches neither boundary nor a
	// second syndrome violates the cluster invariant.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	qa := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3})
	f := quantum.NewFrame(c.NumData())
	f[qa] = quantum.X
	syn := c.Syndrome(surfacecode.ZGraph, f)[:1]
	in := uniformInput(c, surfacecode.ZGraph, syn, nil, 0.05)
	if _, err := peel(in, nil, nil); err == nil {
		t.Fatal("peel should reject support violating the cluster invariant")
	}
}

func TestLogicalErrorRatesOrdering(t *testing.T) {
	// Logical error rate must grow with physical error rate, and at
	// moderate rates sit strictly between 0 and 1/2 for d=5.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	rate := func(dec Decoder, p float64, trials int) float64 {
		src := rng.New(31337)
		nm := surfacecode.UniformNoise(c, p, 0.05)
		probs := nm.EdgeErrorProb()
		fails := 0
		for i := 0; i < trials; i++ {
			f, erased := nm.Sample(src.SplitN("trial", i))
			res, _, err := DecodeFrameWith(c, dec, f, erased, probs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				fails++
			}
		}
		return float64(fails) / float64(trials)
	}
	for _, dec := range allDecoders {
		lo := rate(dec, 0.02, 400)
		hi := rate(dec, 0.14, 400)
		if lo >= hi {
			t.Errorf("%s: logical rate not increasing: p=0.02 -> %v, p=0.14 -> %v", dec.Name(), lo, hi)
		}
		if hi == 0 {
			t.Errorf("%s: suspiciously perfect at p=0.14", dec.Name())
		}
		if lo > 0.25 {
			t.Errorf("%s: logical rate %v at p=0.02 is far too high", dec.Name(), lo)
		}
	}
}

func TestDecoderNames(t *testing.T) {
	want := map[string]bool{"mwpm": true, "union-find": true, "surfnet": true}
	for _, dec := range allDecoders {
		if !want[dec.Name()] {
			t.Errorf("unexpected decoder name %q", dec.Name())
		}
	}
}

func TestSurfNetStepSizeConfigurable(t *testing.T) {
	// Different step sizes must still produce valid corrections.
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	src := rng.New(55)
	nm := surfacecode.UniformNoise(c, 0.1, 0.15)
	probs := nm.EdgeErrorProb()
	for _, r := range []float64{0.25, 2.0 / 3.0, 1.5} {
		dec := SurfNet{StepSize: r}
		for trial := 0; trial < 20; trial++ {
			f, erased := nm.Sample(src.SplitN("t", trial))
			if _, _, err := DecodeFrameWith(c, dec, f, erased, probs, nil, nil); err != nil {
				t.Fatalf("step %v trial %d: %v", r, trial, err)
			}
		}
	}
}
