package core

import (
	"context"
	"fmt"

	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// RoundConfig drives continuous network operation: the routing protocol of
// §V-A runs in rounds, each collecting the pending requests, scheduling them
// against refreshed capacities and entanglement budgets, and handing the
// schedule to online execution. Requests that a round cannot admit stay in
// the backlog for the next round.
type RoundConfig struct {
	// Rounds is the number of scheduling rounds to simulate.
	Rounds int
	// ArrivalsPerRound is the number of new requests drawn each round.
	ArrivalsPerRound int
	// MaxMessages caps surface codes per arriving request.
	MaxMessages int
	// MaxBacklog bounds the pending queue; excess requests are rejected
	// (counted in the result). Zero selects 64.
	MaxBacklog int
	// Routing selects the design and parameters used every round.
	Routing routing.Params
	// UseLP selects the LP-relaxation scheduler; false selects greedy.
	UseLP bool
	// Engine configures the per-round online execution.
	Engine Config
}

// DefaultRoundConfig returns a paper-scale continuous run: 8 rounds of 4
// arrivals on the SurfNet design.
func DefaultRoundConfig() RoundConfig {
	return RoundConfig{
		Rounds:           8,
		ArrivalsPerRound: 4,
		MaxMessages:      3,
		Routing:          routing.DefaultParams(routing.SurfNet),
		UseLP:            true,
		Engine:           DefaultConfig(),
	}
}

func (rc RoundConfig) validate() error {
	if rc.Rounds < 1 {
		return fmt.Errorf("%w: Rounds %d < 1", ErrConfig, rc.Rounds)
	}
	if rc.ArrivalsPerRound < 0 {
		return fmt.Errorf("%w: ArrivalsPerRound %d < 0", ErrConfig, rc.ArrivalsPerRound)
	}
	if rc.MaxMessages < 1 {
		return fmt.Errorf("%w: MaxMessages %d < 1", ErrConfig, rc.MaxMessages)
	}
	if rc.MaxBacklog < 0 {
		return fmt.Errorf("%w: MaxBacklog %d < 0", ErrConfig, rc.MaxBacklog)
	}
	return rc.Routing.Validate()
}

// RoundOutcome summarizes one scheduling round.
type RoundOutcome struct {
	// Round is the round index.
	Round int
	// Arrived is the number of requests that arrived this round.
	Arrived int
	// Pending is the backlog size entering the scheduler.
	Pending int
	// Scheduled is the number of surface codes admitted.
	Scheduled int
	// Result is the online-execution outcome of the admitted codes.
	Result RunResult
}

// RoundsResult aggregates a continuous run.
type RoundsResult struct {
	Rounds []RoundOutcome
	// Rejected counts requests dropped because the backlog was full.
	Rejected int
}

// TotalScheduled sums admitted codes over all rounds.
func (r RoundsResult) TotalScheduled() int {
	n := 0
	for _, ro := range r.Rounds {
		n += ro.Scheduled
	}
	return n
}

// Fidelity is the success fraction over every executed code of the run.
func (r RoundsResult) Fidelity() float64 {
	succ, total := 0, 0
	for _, ro := range r.Rounds {
		for _, o := range ro.Result.Outcomes {
			total++
			if o.Success {
				succ++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(succ) / float64(total)
}

// RunRounds operates the network continuously: each round draws new
// requests, schedules the backlog against fresh per-round capacities (the
// paper's eta_r and eta_e are per-round budgets), executes the admitted
// codes, and carries unserved requests forward.
func RunRounds(net *network.Network, rc RoundConfig, src *rng.Source) (RoundsResult, error) {
	if err := rc.validate(); err != nil {
		return RoundsResult{}, err
	}
	// The engine's telemetry covers the whole continuous run: propagate it
	// to the scheduler unless the caller wired the routing layer separately.
	if rc.Routing.Metrics == nil {
		rc.Routing.Metrics = rc.Engine.Metrics
	}
	if rc.Routing.Tracer == nil {
		rc.Routing.Tracer = rc.Engine.Tracer
	}
	backlogGauge := rc.Engine.Metrics.Gauge("core.backlog")
	rejectedCounter := rc.Engine.Metrics.Counter("core.backlog_rejections")
	maxBacklog := rc.MaxBacklog
	if maxBacklog == 0 {
		maxBacklog = 64
	}
	eng, err := NewEngine(net, rc.Engine)
	if err != nil {
		return RoundsResult{}, err
	}
	var res RoundsResult
	var backlog []network.Request
	for round := 0; round < rc.Rounds; round++ {
		rsrc := src.SplitN("round", round)
		arrivals, err := topology.GenRequests(net, rc.ArrivalsPerRound, rc.MaxMessages, rsrc.Split("arrivals"))
		if err != nil {
			return RoundsResult{}, fmt.Errorf("core: round %d arrivals: %w", round, err)
		}
		for _, r := range arrivals {
			if len(backlog) >= maxBacklog {
				res.Rejected++
				rejectedCounter.Inc()
				continue
			}
			backlog = append(backlog, r)
		}
		outcome := RoundOutcome{Round: round, Arrived: len(arrivals), Pending: len(backlog)}
		if len(backlog) > 0 {
			var sched routing.Schedule
			if rc.UseLP {
				sched, err = routing.ScheduleLP(net, backlog, rc.Routing)
			} else {
				sched, err = routing.Greedy(net, backlog, rc.Routing, nil, nil)
			}
			if err != nil {
				return RoundsResult{}, fmt.Errorf("core: round %d scheduling: %w", round, err)
			}
			outcome.Scheduled = sched.AcceptedCodes()
			if outcome.Scheduled > 0 {
				run, err := eng.ExecuteParallel(context.Background(), sched, rsrc.Split("run"), 1)
				if err != nil {
					return RoundsResult{}, fmt.Errorf("core: round %d execution: %w", round, err)
				}
				outcome.Result = run
			}
			// Carry forward the unserved remainder of each request.
			var next []network.Request
			for i, rs := range sched.Requests {
				if rem := backlog[i].Messages - rs.Accepted(); rem > 0 {
					r := backlog[i]
					r.Messages = rem
					next = append(next, r)
				}
			}
			backlog = next
		}
		backlogGauge.Set(float64(len(backlog)))
		telemetry.Emit(rc.Engine.Tracer, telemetry.Ev("core.round",
			"round", round, "arrived", outcome.Arrived,
			"pending", outcome.Pending, "scheduled", outcome.Scheduled,
			"backlog", len(backlog)))
		res.Rounds = append(res.Rounds, outcome)
	}
	return res, nil
}
