package experiments

import (
	"fmt"
	"math"

	"surfnet/internal/core"
	"surfnet/internal/faults"
	"surfnet/internal/metrics"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/sim"
	"surfnet/internal/topology"
)

// ResilienceDesigns lists the designs compared by the resilience sweep:
// SurfNet against the Raw and purification-2 baselines, the paper's headline
// robustness claim (§V-B failure handling) under a fault model wider than the
// paper's own.
var ResilienceDesigns = []routing.Design{
	routing.SurfNet,
	routing.Raw,
	routing.Purification2,
}

// ResilienceProfile returns the fault scenario at a given intensity. The
// intensity scales every per-slot fault probability from the unit profile —
// i.i.d. fiber crashes, server outages, correlated regional failures, and
// fidelity drift — while repair times and the drift shape stay fixed, so the
// sweep varies how often faults strike, not how hard each one hits.
func ResilienceProfile(intensity float64) faults.Profile {
	clamp := func(p float64) float64 { return math.Min(1, math.Max(0, p)) }
	return faults.Profile{
		FiberCrashProb:      clamp(0.010 * intensity),
		FiberRepairSlots:    15,
		NodeOutageProb:      clamp(0.005 * intensity),
		NodeRepairSlots:     20,
		RegionalProb:        clamp(0.001 * intensity),
		RegionalRepairSlots: 30,
		DriftProb:           clamp(0.020 * intensity),
		DriftWindow:         10,
		DriftDecay:          0.97,
	}
}

// ResilienceRow is one cell of the resilience sweep: one design at one fault
// intensity, with the standard metrics plus the recovery behaviour.
type ResilienceRow struct {
	Intensity float64
	Design    routing.Design
	Cell      Cell
	// Delivered summarizes per-trial delivered fractions (codes arriving
	// within the slot budget; failures here are timeouts).
	Delivered metrics.Summary
	// Recoveries, Replans, and SkippedCorrections summarize the per-trial
	// mean count per executed code of local recovery reroutes, epoch
	// re-plans, and corrections skipped at down servers.
	Recoveries         metrics.Summary
	Replans            metrics.Summary
	SkippedCorrections metrics.Summary
}

// resilienceOutcome is one trial's contribution, reduced in trial order.
type resilienceOutcome struct {
	throughput float64
	ran        bool
	fidelity   float64
	latency    float64
	delivered  float64
	recPer     float64
	replanPer  float64
	skipPer    float64
}

// Resilience sweeps fault intensity on the sufficient/good scenario for every
// design in ResilienceDesigns. The same fault profile drives all designs
// (purification baselines react to the fiber and drift components — they have
// no correction servers); the engine's backoff and re-planning knobs come
// from cfg.Engine, so the caller chooses the recovery policy under test.
func Resilience(cfg Config, intensities []float64) ([]ResilienceRow, error) {
	if intensities == nil {
		intensities = []float64{0, 0.5, 1, 2, 4, 8}
	}
	var rows []ResilienceRow
	for _, x := range intensities {
		for _, design := range ResilienceDesigns {
			engine := cfg.Engine
			if x > 0 {
				p := ResilienceProfile(x)
				if cfg.Engine.Faults != nil {
					p.Script = cfg.Engine.Faults.Script // keep caller's timetable
				}
				engine.Faults = &p
			}
			spec := trialSpec{
				params:   topology.DefaultParams(topology.Sufficient, topology.GoodConnection),
				design:   design,
				routing:  routing.DefaultParams(design),
				requests: cfg.Requests,
				maxMsgs:  cfg.MaxMessages,
			}
			row, err := runResilienceCell(cfg, engine, spec,
				fmt.Sprintf("resilience/%.2f/%s", x, design))
			if err != nil {
				return nil, err
			}
			row.Intensity, row.Design = x, design
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runResilienceCell mirrors runCell but also reduces the per-code recovery
// behaviour out of the engine outcomes.
func runResilienceCell(cfg Config, engine core.Config, spec trialSpec, label string) (ResilienceRow, error) {
	if engine.Metrics == nil {
		engine.Metrics = cfg.Metrics
	}
	if engine.Tracer == nil {
		engine.Tracer = cfg.Tracer
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
	outcomes, err := sim.Run(ctx, cfg.Trials, cfg.Workers,
		func(trial int, _ *sim.Worker) (resilienceOutcome, error) {
			src := root.SplitN("trial", trial)
			net, err := topology.Generate(spec.params, src.Split("net"))
			if err != nil {
				return resilienceOutcome{}, fmt.Errorf("experiments: generating network: %w", err)
			}
			reqs, err := topology.GenRequests(net, spec.requests, spec.maxMsgs, src.Split("reqs"))
			if err != nil {
				return resilienceOutcome{}, fmt.Errorf("experiments: generating requests: %w", err)
			}
			sched, err := schedule(net, reqs, spec.routing, cfg.UseLP)
			if err != nil {
				return resilienceOutcome{}, fmt.Errorf("experiments: scheduling %v: %w", spec.design, err)
			}
			out := resilienceOutcome{throughput: sched.Throughput()}
			if sched.AcceptedCodes() == 0 {
				return out, nil // no executions to measure
			}
			res, err := execute(net, sched, engine, src.Split("run"))
			if err != nil {
				return resilienceOutcome{}, fmt.Errorf("experiments: executing %v: %w", spec.design, err)
			}
			out.ran = true
			out.fidelity = res.Fidelity()
			out.latency = res.MeanLatency()
			out.delivered = res.DeliveredFraction()
			n := float64(len(res.Outcomes))
			for _, o := range res.Outcomes {
				out.recPer += float64(o.Recoveries) / n
				out.replanPer += float64(o.Replans) / n
				out.skipPer += float64(o.SkippedCorrections) / n
			}
			return out, nil
		})
	if err != nil {
		return ResilienceRow{}, err
	}
	// Ordered reduction, as in runCell: trial order keeps the streaming
	// means identical for every worker count.
	var row ResilienceRow
	for _, out := range outcomes {
		row.Cell.Trials++
		row.Cell.Throughput.Add(out.throughput)
		if !out.ran {
			row.Cell.EmptyTrials++
			continue
		}
		row.Cell.Fidelity.Add(out.fidelity)
		row.Cell.Latency.Add(out.latency)
		row.Delivered.Add(out.delivered)
		row.Recoveries.Add(out.recPer)
		row.Replans.Add(out.replanPer)
		row.SkippedCorrections.Add(out.skipPer)
	}
	return row, nil
}
