package decoder

import (
	"testing"

	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestMWPMEpochCacheMatchesFreshDecode is the epoch-mode correctness
// contract: decoding on an epoch-tagged arena — across fidelity drift, with
// a fresh epoch per mutation — must produce exactly the results of an
// uncached decode with the current probabilities.
func TestMWPMEpochCacheMatchesFreshDecode(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.07, 0.15)
	base := nm.EdgeErrorProb()
	src := rng.New(11)
	sc := NewScratch()

	probs := make([]float64, len(base))
	for batch := 0; batch < 4; batch++ {
		// Fidelity drift: each batch decodes under a mutated vector, and the
		// caller's side of the contract is a fresh epoch per mutation.
		scale := 1 - 0.15*float64(batch)
		for i, p := range base {
			probs[i] = p * scale
		}
		sc.SetProbsEpoch(NewProbsEpoch())
		for trial := 0; trial < 25; trial++ {
			frame, erased := nm.Sample(src)
			got, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ {
				t.Fatalf("batch %d trial %d: epoch-cached decode diverged: got %+v want %+v",
					batch, trial, got, want)
			}
		}
	}
}

// TestMWPMEpochSkipsHashOnQuietFrames pins the cache behavior the epoch tag
// buys: with a fixed epoch and no erasures, only the first decode per graph
// (and per epoch bump) rewrites weights — every later frame is a graph-cache
// hit without hashing the fidelity vector.
func TestMWPMEpochSkipsHashOnQuietFrames(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.10, 0) // erasure-free: quiet frames
	probs := nm.EdgeErrorProb()
	src := rng.New(7)
	sc := NewScratch()
	sc.SetProbsEpoch(NewProbsEpoch())

	const trials = 40
	for i := 0; i < trials; i++ {
		frame, erased := nm.Sample(src)
		if _, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, sc); err != nil {
			t.Fatal(err)
		}
	}
	c1 := sc.mwpm.counters
	if c1.graphMisses > 2 {
		t.Fatalf("graph misses = %d, want <= 2 (one weight rewrite per graph)", c1.graphMisses)
	}
	if c1.graphHits == 0 {
		t.Fatal("no graph-cache hits over quiet frames")
	}

	// Bumping the epoch (a drift event) invalidates: the next frame must
	// rewrite weights again on each decoded graph.
	sc.SetProbsEpoch(NewProbsEpoch())
	for i := 0; i < 5; i++ {
		frame, erased := nm.Sample(src)
		if _, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, sc); err != nil {
			t.Fatal(err)
		}
	}
	c2 := sc.mwpm.counters
	if c2.graphMisses == c1.graphMisses {
		t.Fatal("epoch bump did not invalidate the graph cache")
	}
	if c2.graphMisses > c1.graphMisses+2 {
		t.Fatalf("epoch bump caused %d rewrites, want <= 2", c2.graphMisses-c1.graphMisses)
	}

	// Returning to content-hash mode (epoch 0) keeps results correct and
	// the caches coherent — the mode switch itself forces one rewrite.
	sc.SetProbsEpoch(0)
	frame, erased := nm.Sample(src)
	got, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ {
		t.Fatalf("mode switch diverged: got %+v want %+v", got, want)
	}
}

// TestMWPMEpochErasureFingerprint: in epoch mode the erasure set is still
// part of the key — frames with different erasures must not reuse weights.
func TestMWPMEpochErasureFingerprint(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.07, 0.25)
	probs := nm.EdgeErrorProb()
	src := rng.New(3)
	sc := NewScratch()
	sc.SetProbsEpoch(NewProbsEpoch())
	for trial := 0; trial < 50; trial++ {
		frame, erased := nm.Sample(src)
		got, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := DecodeFrameWith(code, MWPM{}, frame, erased, probs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ {
			t.Fatalf("trial %d: erasure-bearing decode diverged: got %+v want %+v",
				trial, got, want)
		}
	}
}
