package decoder

import (
	"fmt"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestScratchSyndromeMatchesCode checks the arena's syndrome fast path
// against the reference surfacecode.Code.Syndrome on random frames.
func TestScratchSyndromeMatchesCode(t *testing.T) {
	code := surfacecode.MustNew(7, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.15, 0.15)
	src := rng.New(11)
	s := NewScratch()
	for trial := 0; trial < 50; trial++ {
		frame, _ := nm.Sample(src.SplitN("t", trial))
		for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
			want := code.Syndrome(kind, frame)
			got := s.syndrome(code, kind, frame, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d kind %v: %d syndromes, want %d", trial, kind, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d kind %v: syndrome %v, want %v", trial, kind, got, want)
				}
			}
		}
	}
}

// TestDecodeFrameWithMatchesAllocatingPath checks that one reused arena
// produces byte-identical decode results to the allocating path, across
// every decoder, for a long stream of random frames. This is the contract
// the deterministic parallel trial engine relies on: a worker's scratch must
// never leak state between trials.
func TestDecodeFrameWithMatchesAllocatingPath(t *testing.T) {
	code := surfacecode.MustNew(7, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.08, 0.15)
	probs := nm.EdgeErrorProb()
	decoders := []Decoder{
		UnionFind{},
		SurfNet{},
		SurfNet{FiniteErasureGrowth: true},
		MWPM{}, // scratch path must match its private-arena decode exactly
	}
	for _, dec := range decoders {
		t.Run(fmt.Sprintf("%s/finite=%v", dec.Name(), dec), func(t *testing.T) {
			src := rng.New(23)
			s := NewScratch()
			for trial := 0; trial < 40; trial++ {
				frame, erased := nm.Sample(src.SplitN("t", trial))
				want, wantStats, err := DecodeFrameWith(code, dec, frame, erased, probs, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := DecodeFrameWith(code, dec, frame, erased, probs, nil, s)
				if err != nil {
					t.Fatal(err)
				}
				if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ {
					t.Fatalf("trial %d: logical (%v,%v), want (%v,%v)",
						trial, got.LogicalX, got.LogicalZ, want.LogicalX, want.LogicalZ)
				}
				if len(got.Residual) != len(want.Residual) {
					t.Fatalf("trial %d: residual length %d, want %d", trial, len(got.Residual), len(want.Residual))
				}
				for q := range want.Residual {
					if got.Residual[q] != want.Residual[q] {
						t.Fatalf("trial %d: residual diverges at qubit %d", trial, q)
					}
				}
				if gotStats.SyndromeWeight != wantStats.SyndromeWeight ||
					gotStats.CorrectionWeight != wantStats.CorrectionWeight {
					t.Fatalf("trial %d: stats %+v, want %+v", trial, gotStats, wantStats)
				}
			}
		})
	}
}

// TestDecodeWithNilScratchEqualsDecode pins DecodeWith(in, nil) == Decode.
func TestDecodeWithNilScratchEqualsDecode(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.1, 0.1)
	frame, erased := nm.Sample(rng.New(3))
	in := Input{
		Graph:     code.Graph(surfacecode.ZGraph),
		Syndromes: code.Syndrome(surfacecode.ZGraph, frame),
		Erased:    erased,
		ErrorProb: nm.EdgeErrorProb(),
	}
	for _, d := range []ScratchDecoder{UnionFind{}, SurfNet{}} {
		a, err := d.Decode(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.DecodeWith(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %v vs %v", d.Name(), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: corrections diverge: %v vs %v", d.Name(), a, b)
			}
		}
	}
}

// BenchmarkDecodeFrameAllocs compares the allocating frame decode against
// the scratch-arena path; the scratch variant's allocs/op should sit near
// zero in steady state (run with -benchmem).
func BenchmarkDecodeFrameAllocs(b *testing.B) {
	for _, d := range []int{9, 15} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		nm := surfacecode.UniformNoise(code, 0.07, 0.15)
		probs := nm.EdgeErrorProb()
		for _, dec := range []Decoder{UnionFind{}, SurfNet{}} {
			b.Run(fmt.Sprintf("%s/d=%d/alloc", dec.Name(), d), func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(99)
				for i := 0; i < b.N; i++ {
					frame, erased := nm.Sample(src.SplitN("t", i))
					if _, _, err := DecodeFrameWith(code, dec, frame, erased, probs, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/d=%d/scratch", dec.Name(), d), func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(99)
				s := NewScratch()
				var frame quantum.Frame
				var erased []bool
				for i := 0; i < b.N; i++ {
					frame, erased = nm.SampleInto(src.SplitN("t", i), frame, erased)
					if _, _, err := DecodeFrameWith(code, dec, frame, erased, probs, nil, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
