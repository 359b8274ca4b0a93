package routing

import (
	"slices"
	"sync"

	"surfnet/internal/lp"
	"surfnet/internal/network"
	"surfnet/internal/telemetry"
)

// Planner is the resident control plane's incremental scheduler. It behaves
// exactly like ScheduleLP — same formulation, same rounding, same greedy
// repair — but remembers the simplex basis of its last optimal solve and
// the requests it was solved for. A re-plan of the same requests (fault
// telemetry, retries) warm-starts from that basis and skips simplex phase 1
// whenever the previous vertex is still feasible. A basis names per-request
// columns, so for any other request set it means nothing and the solve is
// cold from the start. A Planner is safe for concurrent use; each Plan call
// is serialized.
type Planner struct {
	params Params

	mu sync.Mutex
	// basis is the last optimal basis, solved for reqs.
	basis []int
	reqs  []network.Request
	// warmHits / warmMisses count Plan calls whose LP solve did / did not
	// reuse the previous basis (misses include cold solves of new request
	// sets and fallbacks after topology reshapes).
	warmHits, warmMisses int64
}

// NewPlanner returns a planner scheduling with the given parameters.
func NewPlanner(p Params) *Planner { return &Planner{params: p} }

// Params returns the planner's routing parameters.
func (pl *Planner) Params() Params { return pl.params }

// WarmStats reports how many Plan LP solves reused the previous basis
// (hits) versus solved cold (misses).
func (pl *Planner) WarmStats() (hits, misses int64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.warmHits, pl.warmMisses
}

// Invalidate drops the remembered basis, forcing the next Plan to solve
// cold. Callers use it after reshaping changes (node removal, request-set
// restructuring) known to make the old basis useless.
func (pl *Planner) Invalidate() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.basis = nil
}

// Plan schedules reqs on net, warm-starting the LP relaxation from the last
// optimal basis when it was solved for the same requests. The integral
// schedule is produced by the same rounding and greedy repair as ScheduleLP,
// so given identical relaxation optima the two paths admit identical code
// sets. Designs without an IP formulation (purification) and adaptive code
// sizing degrade to Greedy exactly as in ScheduleLP.
func (pl *Planner) Plan(net *network.Network, reqs []network.Request) (Schedule, error) {
	p := pl.params
	fallback := func(reason string) (Schedule, error) {
		p.Metrics.Counter("routing.greedy_fallbacks").Inc()
		telemetry.Emit(p.Tracer, telemetry.Ev("routing.greedy_fallback",
			"reason", reason, "requests", len(reqs)))
		return Greedy(net, reqs, p, nil, nil)
	}
	if p.Design != SurfNet && p.Design != Raw {
		return fallback("design-without-formulation")
	}
	if len(p.AdaptiveDistances) > 0 {
		return fallback("adaptive-code-sizing")
	}
	form, err := BuildLP(net, reqs, p)
	if err != nil {
		return Schedule{}, err
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var basis []int
	if slices.Equal(reqs, pl.reqs) {
		basis = pl.basis
	}
	res, err := solveLP(p, form, basis)
	if err != nil {
		pl.basis = nil
		return fallback("solver-error")
	}
	if res.Stats.WarmStarted {
		pl.warmHits++
		p.Metrics.Counter("routing.replan_warm_hits").Inc()
	} else {
		pl.warmMisses++
		p.Metrics.Counter("routing.replan_warm_misses").Inc()
	}
	if res.Status != lp.Optimal {
		pl.basis = nil
		return fallback("lp-" + res.Status.String())
	}
	pl.basis, pl.reqs = res.Basis, slices.Clone(reqs)
	return roundAndRepair(net, reqs, p, res)
}
