// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled to one reduced trial per iteration; use cmd/surfnetsim and
// cmd/decoderbench for full-scale runs), plus micro-benchmarks of each core
// algorithm: the three decoders, the blossom matcher, the routing LP, and
// the execution engine.
package surfnet_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"surfnet"
	"surfnet/internal/batch"
	"surfnet/internal/decoder"
	"surfnet/internal/matching"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
)

// benchExperiments returns a one-trial experiment configuration sized for a
// single benchmark iteration.
func benchExperiments(seed uint64) surfnet.ExperimentConfig {
	cfg := surfnet.DefaultExperiments()
	cfg.Trials = 1
	cfg.Requests = 4
	cfg.MaxMessages = 2
	cfg.Seed = seed
	return cfg
}

// BenchmarkFig6aTable regenerates the Fig. 6(a) Raw-vs-SurfNet table
// (throughput, latency, fidelity across the three facility scenarios).
func BenchmarkFig6aTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := surfnet.Fig6a(benchExperiments(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig6b1 regenerates the capacity sweep of Fig. 6(b.1).
func BenchmarkFig6b1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.Fig6b1(benchExperiments(uint64(i+1)), []float64{0.5, 1, 1.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b2 regenerates the entanglement-rate sweep of Fig. 6(b.2).
func BenchmarkFig6b2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.Fig6b2(benchExperiments(uint64(i+1)), []float64{0.5, 1, 1.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b3 regenerates the messages-per-request sweep of Fig. 6(b.3).
func BenchmarkFig6b3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.Fig6b3(benchExperiments(uint64(i+1)), []int{1, 3, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b4 regenerates the fidelity-threshold sweep of Fig. 6(b.4).
func BenchmarkFig6b4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.Fig6b4(benchExperiments(uint64(i+1)), []float64{0.6, 1, 1.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the five-design fidelity comparison of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := surfnet.Fig7(benchExperiments(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig8 regenerates a reduced Fig. 8 threshold grid (both decoders,
// two distances, three Pauli rates, 5 trials per point per iteration).
func BenchmarkFig8(b *testing.B) {
	cfg := surfnet.DefaultFig8()
	cfg.Trials = 5
	cfg.Distances = []int{9, 13}
	cfg.PauliRates = []float64{0.06, 0.07, 0.08}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := surfnet.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellWorkers compares serial and parallel evaluation of the
// Fig. 6(a) cells at increasing worker-pool sizes. Results are identical for
// every worker count (internal/sim seeds trials by index); only wall time
// changes, so ns/op across the sub-benchmarks is the speedup table.
func BenchmarkCellWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			cfg := surfnet.DefaultExperiments()
			cfg.Trials = 16
			cfg.Requests = 4
			cfg.MaxMessages = 2
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := surfnet.Fig6a(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Workers compares serial and parallel evaluation of one Fig. 8
// threshold point (d=9, both decoders) at increasing worker-pool sizes; the
// parallel path also exercises the per-worker decoder scratch arenas.
func BenchmarkFig8Workers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			cfg := surfnet.DefaultFig8()
			cfg.Trials = 64
			cfg.Distances = []int{9}
			cfg.PauliRates = []float64{0.07}
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := surfnet.Fig8(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeOnce samples one Fig. 8-style error and decodes it with dec.
func decodeOnce(b *testing.B, code *surfacecode.Code, dec decoder.Decoder, src *rng.Source,
	nm *surfacecode.NoiseModel, probs []float64) {
	b.Helper()
	frame, erased := nm.Sample(src)
	if _, _, err := decoder.DecodeFrameWith(code, dec, frame, erased, probs, nil, nil); err != nil {
		b.Fatal(err)
	}
}

// benchDecoder runs one decoder across the paper's distances at the Fig. 8
// operating point (p = 7%, erasure 15%).
func benchDecoder(b *testing.B, dec decoder.Decoder) {
	b.Helper()
	for _, d := range []int{9, 11, 13, 15} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			code := surfacecode.MustNew(d, surfacecode.CoreLShape)
			nm := surfacecode.UniformNoise(code, 0.07, 0.15)
			probs := nm.EdgeErrorProb()
			src := rng.New(99)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decodeOnce(b, code, dec, src, nm, probs)
			}
		})
	}
}

// BenchmarkSurfNetDecoder measures Algorithm 2 (Theorem 2's near-linear
// scaling shows in the per-distance growth).
func BenchmarkSurfNetDecoder(b *testing.B) { benchDecoder(b, decoder.SurfNet{}) }

// BenchmarkUnionFindDecoder measures the Union-Find baseline.
func BenchmarkUnionFindDecoder(b *testing.B) { benchDecoder(b, decoder.UnionFind{}) }

// BenchmarkMWPMDecoder measures the modified MWPM decoder (Algorithm 1 /
// Theorem 1).
func BenchmarkMWPMDecoder(b *testing.B) { benchDecoder(b, decoder.MWPM{}) }

// BenchmarkDecodeWallLatency measures per-decode wall latency *distribution*,
// not just the mean: each decode is timed into the telemetry HDR histogram
// and the p50/p99/p999 land in BENCH_decoder.json as extra metric families
// (p50-ns/op ...), so tail regressions show in the trajectory even when the
// mean holds.
func BenchmarkDecodeWallLatency(b *testing.B) {
	for _, dec := range []struct {
		name string
		d    decoder.Decoder
	}{{"surfnet", decoder.SurfNet{}}, {"mwpm", decoder.MWPM{}}} {
		b.Run(dec.name+"/d=9", func(b *testing.B) {
			code := surfacecode.MustNew(9, surfacecode.CoreLShape)
			nm := surfacecode.UniformNoise(code, 0.07, 0.15)
			probs := nm.EdgeErrorProb()
			src := rng.New(99)
			h := telemetry.NewHDR(telemetry.WallLatencySpec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				decodeOnce(b, code, dec.d, src, nm, probs)
				h.Observe(time.Since(start).Seconds())
			}
			b.StopTimer()
			for _, p := range []struct {
				unit string
				q    float64
			}{{"p50-ns/op", 0.50}, {"p99-ns/op", 0.99}, {"p999-ns/op", 0.999}} {
				if v := h.Quantile(p.q); !math.IsNaN(v) {
					b.ReportMetric(v*1e9, p.unit)
				}
			}
		})
	}
}

// BenchmarkBatchSample measures packed 64-lane noise sampling: one op draws
// a full 64-trial batch of X/Z/erasure planes, so ns/trial is ns/op ÷ 64
// (reported as an extra metric).
func BenchmarkBatchSample(b *testing.B) {
	for _, d := range []int{9, 15, 25} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			code := surfacecode.MustNew(d, surfacecode.CoreLShape)
			nm := surfacecode.UniformNoise(code, 0.07, 0.15)
			s, err := batch.NewSampler(code.NumData(), nm)
			if err != nil {
				b.Fatal(err)
			}
			planes := batch.NewPlanes(code.NumData())
			src := rng.New(99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(planes, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch.Lanes, "ns/trial")
		})
	}
}

// BenchmarkBatchDecode compares the packed 64-lane engine against the scalar
// pipeline on the same operating points: "fig8" is the threshold-study mixed
// regime (p = 7%, erasure 15%), where most lanes fall back to the scalar
// decoder and packing amortizes sampling, syndrome extraction, and verdicts;
// "erasure" is the erasure-dominated regime (pure erasure at 24%, the regime
// Delfosse's linear-time peeling benchmark targets), where the stamped peeling
// fast path carries every lane and the packed engine's per-trial throughput
// leaves the scalar pipeline far behind. One packed op decodes 64 trials;
// ns/trial is reported for direct comparison with the scalar rows.
func BenchmarkBatchDecode(b *testing.B) {
	points := []struct {
		name string
		p, e float64
	}{
		{"fig8", 0.07, 0.15},
		{"erasure", 0.0, 0.15},
	}
	for _, pt := range points {
		for _, d := range []int{9, 15, 25} {
			code := surfacecode.MustNew(d, surfacecode.CoreLShape)
			nm := surfacecode.UniformNoise(code, pt.p, pt.e)
			b.Run(fmt.Sprintf("%s/d=%d/packed", pt.name, d), func(b *testing.B) {
				eng, err := batch.NewEngine(code, nm, decoder.SurfNet{})
				if err != nil {
					b.Fatal(err)
				}
				root := rng.New(99)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.Run(root.SplitN("batch", i), batch.Lanes); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch.Lanes, "ns/trial")
			})
			b.Run(fmt.Sprintf("%s/d=%d/scalar", pt.name, d), func(b *testing.B) {
				probs := nm.EdgeErrorProb()
				src := rng.New(99)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					decodeOnce(b, code, decoder.SurfNet{}, src, nm, probs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial")
			})
		}
	}
}

// BenchmarkBlossom measures the exact minimum-weight perfect matcher on
// random complete graphs of the sizes the MWPM decoder produces.
func BenchmarkBlossom(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(7)
			var edges []matching.Edge
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					edges = append(edges, matching.Edge{U: u, V: v, Weight: src.Range(0.1, 10)})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := matching.MinWeightPerfect(n, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleLP measures one LP-relaxation scheduling round on a
// paper-scale network (Corollary 1.1 context: the offline stage's cost).
func BenchmarkScheduleLP(b *testing.B) {
	src := surfnet.NewRand(5)
	net, err := surfnet.GenerateNetwork(surfnet.DefaultTopology(surfnet.Sufficient, surfnet.GoodConnection), src)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := surfnet.GenRequests(net, 6, 3, src.Split("reqs"))
	if err != nil {
		b.Fatal(err)
	}
	params := surfnet.DefaultRouting(surfnet.DesignSurfNet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.ScheduleRoutes(net, reqs, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteEngine measures the online execution of one scheduled
// batch through the slot-level engine.
func BenchmarkExecuteEngine(b *testing.B) {
	src := surfnet.NewRand(6)
	net, err := surfnet.GenerateNetwork(surfnet.DefaultTopology(surfnet.Sufficient, surfnet.GoodConnection), src)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := surfnet.GenRequests(net, 6, 3, src.Split("reqs"))
	if err != nil {
		b.Fatal(err)
	}
	sched, err := surfnet.ScheduleRoutes(net, reqs, surfnet.DefaultRouting(surfnet.DesignSurfNet))
	if err != nil {
		b.Fatal(err)
	}
	cfg := surfnet.DefaultEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surfnet.Execute(net, sched, cfg, src.SplitN("run", i)); err != nil {
			b.Fatal(err)
		}
	}
}
