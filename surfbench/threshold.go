package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"surfnet/internal/decoder"
	"surfnet/internal/experiments"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/sim"
	"surfnet/internal/surfacecode"
)

const (
	// pointTrials is the Monte Carlo trial count of every Fig. 8 point.
	pointTrials = 500
	// secondsPerPass sizes the run: one pass over the grid per this many
	// of --seconds (a pass takes about 1.6 s on two 2.x GHz cores). The
	// work depends on --seconds alone, never on measured speed, so two
	// commits always do the same work. Many short passes let the median
	// pass leave a burst of load from other processes out of goodput.
	secondsPerPass = 2
)

// fig8Config is the paper's Fig. 8 grid (d 9–15, p 5–8.5%, erasure 15%,
// UnionFind and SurfNet) on the scalar path, with two workers.
func fig8Config(seed uint64) experiments.Fig8Config {
	cfg := experiments.DefaultFig8Config()
	cfg.Seed = seed
	cfg.Trials = pointTrials
	cfg.Workers = poolWorkers
	return cfg
}

// passSeed is the Fig. 8 seed of pass p: every pass samples fresh errors.
func passSeed(seed uint64, p int) uint64 { return rng.New(seed).SplitN("pass", p).Uint64() }

// thresholdSetup is what the threshold study builds before it samples: the
// codes of every distance and each point's noise model and per-qubit error
// probabilities.
type thresholdSetup struct {
	codes map[int]*surfacecode.Code
	noise map[[2]int]*surfacecode.NoiseModel // keyed by distance and rate index
	probs map[[2]int][]float64
}

func buildThresholdSetup(cfg experiments.Fig8Config) (*thresholdSetup, error) {
	s := &thresholdSetup{
		codes: map[int]*surfacecode.Code{},
		noise: map[[2]int]*surfacecode.NoiseModel{},
		probs: map[[2]int][]float64{},
	}
	for _, d := range cfg.Distances {
		code, err := surfacecode.New(d, cfg.Layout)
		if err != nil {
			return nil, fmt.Errorf("building d=%d code: %w", d, err)
		}
		s.codes[d] = code
		for pi, p := range cfg.PauliRates {
			nm := surfacecode.UniformNoise(code, p, cfg.ErasureRate)
			s.noise[[2]int{d, pi}] = nm
			s.probs[[2]int{d, pi}] = nm.EdgeErrorProb()
		}
	}
	return s, nil
}

// pointClock stamps the end of every Fig. 8 point from the trial pool's
// progress reports: points run one after another with pointTrials trials
// each, so the count crossing a multiple of pointTrials ends a point.
type pointClock struct {
	done atomic.Int64
	mu   sync.Mutex
	ends []time.Time
}

func (c *pointClock) TrialDone(n int) {
	if v := c.done.Add(int64(n)); v%pointTrials == 0 {
		c.mu.Lock()
		c.ends = append(c.ends, time.Now())
		c.mu.Unlock()
	}
}

// runPass runs one untraced Fig. 8 pass and returns its points, its wall
// time, and each point's wall time in ms.
func runPass(ctx context.Context, cfg experiments.Fig8Config) ([]experiments.Fig8Point, time.Duration, []float64, error) {
	clock := &pointClock{}
	cfg.Context = sim.WithProgress(ctx, clock)
	start := time.Now()
	pts, err := experiments.Fig8(cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, nil, err
	}
	var lat []float64
	prev := start
	for _, end := range clock.ends {
		lat = append(lat, float64(end.Sub(prev))/float64(time.Millisecond))
		prev = end
	}
	return pts, wall, lat, nil
}

// checkPoints checks a pass's points: the whole grid, every point at its
// configured trial count, every rate in [0,1].
func checkPoints(out *outcome, cfg experiments.Fig8Config, pts []experiments.Fig8Point) {
	want := len(cfg.Decoders) * len(cfg.Distances) * len(cfg.PauliRates)
	out.check(len(pts) == want, "Fig. 8 pass returned %d points, want %d", len(pts), want)
	for _, pt := range pts {
		out.check(pt.Trials == cfg.Trials, "point %s d=%d p=%.3f ran %d trials, want %d",
			pt.Decoder, pt.Distance, pt.PauliRate, pt.Trials, cfg.Trials)
		out.check(pt.LogicalRate >= 0 && pt.LogicalRate <= 1, "point %s d=%d p=%.3f logical rate %v outside [0,1]",
			pt.Decoder, pt.Distance, pt.PauliRate, pt.LogicalRate)
	}
}

// runThreshold runs the threshold workload: fixed passes of the Fig. 8 grid
// through experiments.Fig8. The traced run re-runs one pass in the
// benchmark's own loop with sample, frame and decode spans, and checks that
// it reproduces every point's logical rate exactly.
func runThreshold(ctx context.Context, o runOpts) (*outcome, error) {
	base := fig8Config(o.seed)
	setup, setupSecs, err := timedSetup(setupReps, func() (*thresholdSetup, error) { return buildThresholdSetup(base) },
		func(*thresholdSetup) {})
	if err != nil {
		return nil, err
	}
	passes := int(o.seconds) / secondsPerPass
	if passes < 1 || o.trace {
		passes = 1 // the traced run traces one pass: its spans stay in memory
	}
	out := &outcome{metrics: map[string]float64{}}
	var wall time.Duration
	var lat, rates []float64
	var rateSum float64
	var npts int
	var untraced []experiments.Fig8Point
	for p := 0; p < passes; p++ {
		cfg := fig8Config(passSeed(o.seed, p))
		pts, w, l, err := runPass(ctx, cfg)
		if err != nil {
			return nil, err
		}
		checkPoints(out, cfg, pts)
		untraced = pts
		wall += w
		rates = append(rates, float64(len(pts)*cfg.Trials)/w.Seconds())
		lat = append(lat, l...)
		for _, pt := range pts {
			rateSum += pt.LogicalRate
			npts++
			out.attempted += int64(pt.Trials)
		}
	}
	out.check(len(lat) == npts, "progress reported %d point ends, want %d", len(lat), npts)
	if o.trace {
		return thresholdLayers(ctx, o, setup, untraced, out)
	}
	fmt.Printf("threshold: %d passes x %d points x %d trials in %v\n", passes, npts/passes, pointTrials, wall.Round(time.Millisecond))
	l := sortedCopy(lat)
	p50, err := percentile(l, 0.5)
	if err != nil {
		return nil, fmt.Errorf("point latency: %w", err)
	}
	printTail("point latency", l, p50)
	out.metrics["setup_s"] = setupSecs
	out.metrics["goodput_per_s"] = median(rates)
	out.metrics["latency_p50_ms"] = p50
	out.metrics["ok_share"] = 1
	out.metrics["fidelity"] = 1 - rateSum/float64(npts)
	return out, nil
}

// trialScratch is one worker's reusable buffers in the benchmark's loop.
type trialScratch struct {
	frame  quantum.Frame
	erased []bool
	dec    *decoder.Scratch
	traced map[string]*tracedDecoder
}

// point is one Fig. 8 point of the benchmark's own loop.
type point struct {
	dec   decoder.Decoder
	d, pi int
	p     float64
	req   int64
}

// runPoint runs one point in the benchmark's own loop, with the per-trial
// streams, sampling and frame decoding experiments.Fig8 uses. With a
// recorder it records sample, frame and decode spans and adds the traced
// per-trial work to work. It returns the point's logical rate and wall time.
func runPoint(ctx context.Context, cfg experiments.Fig8Config, setup *thresholdSetup, pt point, rec *recorder, work *atomic.Int64) (float64, time.Duration, error) {
	code := setup.codes[pt.d]
	nm := setup.noise[[2]int{pt.d, pt.pi}]
	probs := setup.probs[[2]int{pt.d, pt.pi}]
	epoch := decoder.NewProbsEpoch()
	root := rng.New(cfg.Seed).Split(fmt.Sprintf("fig8/%s/%d/%.4f", pt.dec.Name(), pt.d, pt.p))
	// The untraced and traced loops keep separate worker arenas.
	key := "surfbench"
	if rec != nil {
		key = "surfbench-traced"
	}
	start := time.Now()
	failed, err := sim.Run(ctx, cfg.Trials, cfg.Workers, func(t int, w *sim.Worker) (bool, error) {
		sc := sim.Scratch(w, key, func() *trialScratch {
			return &trialScratch{dec: decoder.NewScratch(), traced: map[string]*tracedDecoder{}}
		})
		dec := pt.dec
		if rec != nil {
			td := sc.traced[dec.Name()]
			if td == nil {
				td = newTracedDecoder(dec, rec)
				sc.traced[dec.Name()] = td
			}
			dec = td
		}
		sc.dec.SetProbsEpoch(epoch)
		t0 := time.Now()
		ss := rec.start("sample", noSpan, pt.req)
		sc.frame, sc.erased = nm.SampleInto(root.SplitN("t", t), sc.frame, sc.erased)
		rec.end(ss)
		fs := rec.start("frame", noSpan, pt.req)
		if td, ok := dec.(*tracedDecoder); ok {
			td.under(fs, pt.req)
		}
		res, _, err := decoder.DecodeFrameWith(code, dec, sc.frame, sc.erased, probs, nil, sc.dec)
		rec.end(fs)
		if rec != nil {
			work.Add(int64(time.Since(t0)))
		}
		if err != nil {
			return false, fmt.Errorf("decoding d=%d p=%v trial %d: %w", pt.d, pt.p, t, err)
		}
		return res.Failed(), nil
	})
	took := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	fails := 0
	for _, f := range failed {
		if f {
			fails++
		}
	}
	return float64(fails) / float64(cfg.Trials), took, nil
}

// thresholdLayers re-runs pass 0 in the benchmark's own loop twice per
// point, untraced and traced, taking turns to go first so both see the same
// machine. Both must reproduce every point of the untraced experiments.Fig8
// pass exactly. The traced loop's spans give the per-layer metrics and the
// two loops' times the tracing overhead.
func thresholdLayers(ctx context.Context, o runOpts, setup *thresholdSetup, want []experiments.Fig8Point, out *outcome) (*outcome, error) {
	cfg := fig8Config(passSeed(o.seed, 0))
	rec := newRecorder()
	var work atomic.Int64 // ns of traced per-trial work, for pool.busy_share
	var plainTook, tracedTook time.Duration
	i := 0
	for _, dec := range cfg.Decoders {
		for _, d := range cfg.Distances {
			for pi, p := range cfg.PauliRates {
				pt := point{dec: dec, d: d, pi: pi, p: p, req: int64(i)}
				for turn := 0; turn < 2; turn++ {
					traced := (i+turn)%2 == 0
					r := rec
					if !traced {
						r = nil
					}
					rate, took, err := runPoint(ctx, cfg, setup, pt, r, &work)
					if err != nil {
						return nil, err
					}
					if traced {
						tracedTook += took
					} else {
						plainTook += took
					}
					if i < len(want) {
						w := want[i]
						out.check(w.Decoder == dec.Name() && w.Distance == d && w.PauliRate == p && w.LogicalRate == rate,
							"benchmark loop (traced %v) point %s d=%d p=%.3f rate %v differs from experiments.Fig8 %s d=%d p=%.3f rate %v",
							traced, dec.Name(), d, p, rate, w.Decoder, w.Distance, w.PauliRate, w.LogicalRate)
					}
				}
				i++
			}
		}
	}
	out.check(i == len(want), "benchmark loop ran %d points, experiments.Fig8 %d", i, len(want))

	spans := rec.snapshot()
	self := selfTimes(spans)
	m := zeroLayers()
	m["sample.self_us.p50"], _ = dist(selfByName(spans, self, "sample", time.Microsecond))
	m["frame.self_us.p50"], _ = dist(selfByName(spans, self, "frame", time.Microsecond))
	decodeLayers(m, spans, self)
	m["pool.busy_share"] = float64(work.Load()) / (tracedTook.Seconds() * 1e9 * float64(cfg.Workers))
	m["trace.overhead_pct"] = 100 * (tracedTook.Seconds() - plainTook.Seconds()) / plainTook.Seconds()
	out.metrics = m
	if err := writeSpans(o.spanDir, spanFile(o), spans); err != nil {
		return nil, err
	}
	return out, nil
}
