// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI): the Raw-vs-SurfNet scenario tables and fidelity
// plots of Fig. 6(a), the parameter sweeps of Fig. 6(b.1-4), the five-design
// comparison of Fig. 7, and the decoder threshold study of Fig. 8. Each
// entry point returns typed rows that the cmd tools and benchmarks print.
package experiments

import (
	"context"
	"fmt"

	"surfnet/internal/batch"
	"surfnet/internal/core"
	"surfnet/internal/metrics"
	"surfnet/internal/network"
	"surfnet/internal/obs"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/sim"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// Config parameterizes the network experiments (Fig. 6 and Fig. 7).
type Config struct {
	// Context, when non-nil, cancels the trial pool between trials: the
	// CLIs pass their signal-aware run context so an interrupted sweep
	// stops promptly and still flushes partial observability output. Nil
	// selects context.Background().
	Context context.Context
	// Seed roots all randomness; every cell derives labeled sub-streams.
	Seed uint64
	// Trials is the number of random networks evaluated per cell. The
	// paper runs 1080 trials per design across its parameter grid; the
	// default here is sized for interactive runs and can be raised.
	Trials int
	// Requests is the number of communication requests per trial.
	Requests int
	// MaxMessages caps surface codes per request (Fig. 6(b.3) sweeps it).
	MaxMessages int
	// UseLP selects the paper's LP-relaxation-with-rounding scheduler;
	// false selects the pure greedy comparator.
	UseLP bool
	// Workers is the trial worker-pool size; <= 0 selects
	// runtime.GOMAXPROCS(0) and 1 forces the serial path. Results are
	// byte-identical for every value: each trial's randomness derives
	// from the seed and trial index, never from worker identity, and
	// per-trial results are reduced in trial order (internal/sim).
	Workers int
	// Batch schedules trials through sim.RunBatch in slabs of 64 instead
	// of one trial per work unit. Each trial still derives its randomness
	// from the seed and trial index, so cells are byte-identical to the
	// per-trial path; the coarser unit amortizes pool overhead on large
	// sweeps.
	Batch bool
	// Engine configures online execution (code, decoder, segments).
	Engine core.Config
	// Metrics, when non-nil, collects counters and histograms from the
	// scheduler, the engine, and the decoders across every trial of
	// every figure cell; the CLIs snapshot it per figure and write it
	// out with -metrics-out. Nil disables collection.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives every slot-level and routing event
	// of every trial. Nil disables tracing.
	Tracer telemetry.Tracer
	// Wall, when non-nil, captures wall-clock span durations (and budget
	// overruns) into Metrics without touching the deterministic outputs.
	Wall *telemetry.WallSink
	// Progress, when non-nil, receives a live cell per sweep cell and
	// per-trial completion counts; the obs HTTP server serves it at
	// /status. Nil disables progress reporting.
	Progress *obs.Tracker
}

// DefaultConfig returns interactively sized experiment settings.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Trials:      12,
		Requests:    8,
		MaxMessages: 3,
		UseLP:       true,
		Engine:      core.DefaultConfig(),
	}
}

// Cell is the aggregated outcome of one experiment cell (a design in a
// scenario under one parameter setting).
//
// Divisor contract: Throughput averages over all Trials (a trial that
// schedules nothing still has a throughput, zero); Fidelity and Latency
// average only over the Trials - EmptyTrials trials that executed at least
// one code, because an empty trial produces no communication to measure —
// folding a placeholder zero in would deflate both means.
type Cell struct {
	Fidelity   metrics.Summary
	Latency    metrics.Summary
	Throughput metrics.Summary
	// Trials is the number of evaluated trials; EmptyTrials of them
	// scheduled zero codes and contribute only to Throughput.
	Trials      int
	EmptyTrials int
}

// trialSpec pins one trial's full configuration.
type trialSpec struct {
	params   topology.Params
	design   routing.Design
	routing  routing.Params
	requests int
	maxMsgs  int
}

// trialOutcome is one trial's contribution to a Cell, reduced in trial
// order after the parallel run.
type trialOutcome struct {
	throughput float64
	// ran is false for an empty trial: nothing was scheduled, so there is
	// no execution to measure and fidelity/latency carry no sample.
	ran      bool
	fidelity float64
	latency  float64
}

// runCell evaluates Trials random networks for one cell on the sim worker
// pool. Every trial derives its randomness from the cell label and trial
// index, so the Cell is identical for any Workers value.
func runCell(cfg Config, spec trialSpec, label string) (Cell, error) {
	// Wire the harness telemetry into the engine and scheduler unless the
	// caller already instrumented them individually.
	if cfg.Engine.Metrics == nil {
		cfg.Engine.Metrics = cfg.Metrics
	}
	if cfg.Engine.Tracer == nil {
		cfg.Engine.Tracer = cfg.Tracer
	}
	if cfg.Engine.Wall == nil {
		cfg.Engine.Wall = cfg.Wall
	}
	if spec.routing.Metrics == nil {
		spec.routing.Metrics = cfg.Metrics
	}
	if spec.routing.Tracer == nil {
		spec.routing.Tracer = cfg.Tracer
	}
	root := rng.New(cfg.Seed).Split(label)
	ctx := cfg.context()
	if cfg.Progress != nil {
		cell := cfg.Progress.StartCell(label, cfg.Trials)
		defer cell.Finish()
		ctx = sim.WithProgress(ctx, cell)
	}
	trialFn := func(trial int) (trialOutcome, error) {
		src := root.SplitN("trial", trial)
		net, err := topology.Generate(spec.params, src.Split("net"))
		if err != nil {
			return trialOutcome{}, fmt.Errorf("experiments: generating network: %w", err)
		}
		reqs, err := topology.GenRequests(net, spec.requests, spec.maxMsgs, src.Split("reqs"))
		if err != nil {
			return trialOutcome{}, fmt.Errorf("experiments: generating requests: %w", err)
		}
		sched, err := schedule(net, reqs, spec.routing, cfg.UseLP)
		if err != nil {
			return trialOutcome{}, fmt.Errorf("experiments: scheduling %v: %w", spec.design, err)
		}
		out := trialOutcome{throughput: sched.Throughput()}
		if sched.AcceptedCodes() == 0 {
			return out, nil // no executions to measure
		}
		res, err := execute(net, sched, cfg.Engine, src.Split("run"))
		if err != nil {
			return trialOutcome{}, fmt.Errorf("experiments: executing %v: %w", spec.design, err)
		}
		out.ran = true
		out.fidelity = res.Fidelity()
		out.latency = res.MeanLatency()
		return out, nil
	}
	var outcomes []trialOutcome
	var err error
	if cfg.Batch {
		// Batched scheduling: a work unit is a 64-trial slab, but every
		// trial keeps its SplitN("trial", i) stream, so the cell is
		// byte-identical to the per-trial path.
		outcomes, err = sim.RunBatch(ctx, cfg.Trials, batch.Lanes, cfg.Workers,
			func(b sim.Batch, _ *sim.Worker) ([]trialOutcome, error) {
				out := make([]trialOutcome, b.Len)
				for k := range out {
					var err error
					if out[k], err = trialFn(b.Start + k); err != nil {
						return nil, err
					}
				}
				return out, nil
			})
	} else {
		outcomes, err = sim.Run(ctx, cfg.Trials, cfg.Workers,
			func(trial int, _ *sim.Worker) (trialOutcome, error) {
				return trialFn(trial)
			})
	}
	if err != nil {
		return Cell{}, err
	}
	// Ordered reduction: folding in trial order keeps the streaming means
	// bit-identical to a serial run regardless of worker count.
	var cell Cell
	for _, out := range outcomes {
		cell.Trials++
		cell.Throughput.Add(out.throughput)
		if !out.ran {
			cell.EmptyTrials++
			continue
		}
		cell.Fidelity.Add(out.fidelity)
		cell.Latency.Add(out.latency)
	}
	return cell, nil
}

// context resolves the run context.
func (c Config) context() context.Context { return ctxOrBackground(c.Context) }

// ctxOrBackground resolves an optional config context.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func schedule(net *network.Network, reqs []network.Request, p routing.Params, useLP bool) (routing.Schedule, error) {
	if useLP {
		return routing.ScheduleLP(net, reqs, p)
	}
	return routing.Greedy(net, reqs, p, nil, nil)
}

// execute runs one trial's schedule serially on a fresh engine over the
// trial's network. The trial is the pool's unit of work, so the codes run on
// one worker under context.Background(): the cell's context carries its
// progress reporter, which must count trials, not codes.
func execute(net *network.Network, sched routing.Schedule, cfg core.Config, src *rng.Source) (core.RunResult, error) {
	eng, err := core.NewEngine(net, cfg)
	if err != nil {
		return core.RunResult{}, err
	}
	return eng.ExecuteParallel(context.Background(), sched, src, 1)
}
