package routing

import (
	"slices"
	"sync"

	"surfnet/internal/lp"
	"surfnet/internal/network"
)

// Planner is the resident control plane's incremental scheduler. It runs
// ScheduleLP's body — same formulation, same rounding, same greedy repair —
// but remembers the simplex basis of its last optimal solve and
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
// optimal basis when it was solved for the same requests. Everything else,
// the Greedy fallbacks of purification designs and adaptive code sizing
// included, is ScheduleLP's body, so given identical relaxation optima the
// two paths admit identical code sets.
func (pl *Planner) Plan(net *network.Network, reqs []network.Request) (Schedule, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var basis []int
	if slices.Equal(reqs, pl.reqs) {
		basis = pl.basis
	}
	sched, res, err := scheduleLP(net, reqs, pl.params, basis)
	if res.Status != 0 {
		if res.Stats.WarmStarted {
			pl.warmHits++
			pl.params.Metrics.Counter("routing.replan_warm_hits").Inc()
		} else {
			pl.warmMisses++
			pl.params.Metrics.Counter("routing.replan_warm_misses").Inc()
		}
	}
	switch {
	case res.Status == lp.Optimal:
		pl.basis, pl.reqs = res.Basis, slices.Clone(reqs)
	case err == nil:
		// A solver error or a non-optimal status leaves no basis worth
		// reusing. (A BuildLP error solved nothing and keeps it.)
		pl.basis = nil
	}
	return sched, err
}
