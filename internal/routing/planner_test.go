package routing

import (
	"testing"

	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

func plannerScenario(t *testing.T) (*network.Network, []network.Request) {
	t.Helper()
	src := rng.New(6060)
	net, err := topology.Generate(topology.DefaultParams(topology.Sufficient, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 6, 3, src.Split("req"))
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs
}

// TestPlannerMatchesScheduleLPThroughput pins the resident path's quality:
// the warm planner must admit exactly as many codes as the batch scheduler
// (warm starting may land on a different optimal vertex, never a worse one).
func TestPlannerMatchesScheduleLPThroughput(t *testing.T) {
	net, reqs := plannerScenario(t)
	p := DefaultParams(SurfNet)
	batch, err := ScheduleLP(net, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(p)
	for round := 0; round < 3; round++ {
		sched, err := pl.Plan(net, reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := sched.AcceptedCodes(), batch.AcceptedCodes(); got != want {
			t.Fatalf("round %d: planner accepted %d codes, ScheduleLP %d", round, got, want)
		}
	}
	hits, misses := pl.WarmStats()
	if misses != 1 {
		t.Fatalf("warm misses = %d, want exactly the cold first solve", misses)
	}
	if hits != 2 {
		t.Fatalf("warm hits = %d, want 2 steady-state re-plans", hits)
	}
}

// TestPlannerSurvivesTopologyReshape pins the fallback contract: when the
// constraint system changes shape (fiber removed), the stale basis must not
// poison the solve — the planner re-solves cold and keeps scheduling.
func TestPlannerSurvivesTopologyReshape(t *testing.T) {
	net, reqs := plannerScenario(t)
	pl := NewPlanner(DefaultParams(SurfNet))
	first, err := pl.Plan(net, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.AcceptedCodes() == 0 {
		t.Fatal("precondition: planner should admit codes")
	}
	// Rebuild the network without its last fiber: every LP shape parameter
	// (stride, rows) shifts, so the remembered basis cannot install.
	var nodes []network.Node
	for i := 0; i < net.NumNodes(); i++ {
		nodes = append(nodes, net.Node(i))
	}
	var fibers []network.Fiber
	for i := 0; i < net.NumFibers()-1; i++ {
		fibers = append(fibers, net.Fiber(i))
	}
	smaller, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pl.Plan(smaller, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScheduleLP(smaller, reqs, pl.Params())
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.AcceptedCodes(); got != want.AcceptedCodes() {
		t.Fatalf("post-reshape planner accepted %d codes, ScheduleLP %d", got, want.AcceptedCodes())
	}
}

func TestPlannerInvalidateForcesColdSolve(t *testing.T) {
	net, reqs := plannerScenario(t)
	pl := NewPlanner(DefaultParams(SurfNet))
	if _, err := pl.Plan(net, reqs); err != nil {
		t.Fatal(err)
	}
	pl.Invalidate()
	if _, err := pl.Plan(net, reqs); err != nil {
		t.Fatal(err)
	}
	hits, misses := pl.WarmStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2 after Invalidate", hits, misses)
	}
}

func TestPlannerWarmCountersExported(t *testing.T) {
	net, reqs := plannerScenario(t)
	p := DefaultParams(SurfNet)
	p.Metrics = telemetry.NewRegistry()
	pl := NewPlanner(p)
	for i := 0; i < 2; i++ {
		if _, err := pl.Plan(net, reqs); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Metrics.Counter("routing.replan_warm_hits").Value(); got != 1 {
		t.Fatalf("replan_warm_hits = %d, want 1", got)
	}
	if got := p.Metrics.Counter("routing.replan_warm_misses").Value(); got != 1 {
		t.Fatalf("replan_warm_misses = %d, want 1", got)
	}
}

// TestPlannerPurificationFallsBackToGreedy pins that designs without an IP
// formulation keep working through the planner.
func TestPlannerPurificationFallsBackToGreedy(t *testing.T) {
	net, reqs := plannerScenario(t)
	pl := NewPlanner(DefaultParams(Purification2))
	sched, err := pl.Plan(net, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Greedy(net, reqs, pl.Params(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() != want.AcceptedCodes() {
		t.Fatalf("planner purification accepted %d, greedy %d",
			sched.AcceptedCodes(), want.AcceptedCodes())
	}
}

// TestPlannerNewRequestSetSolvesCold pins the warm-start key: a basis names
// per-request columns, so after planning request set A the planner must solve
// a different set B of the same LP shape exactly as a cold ScheduleLP does —
// the same pivot count, with no installation pivots spent on A's basis.
func TestPlannerNewRequestSetSolvesCold(t *testing.T) {
	net, a := plannerScenario(t)
	b, err := topology.GenRequests(net, len(a), 3, rng.New(6061))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(SurfNet)
	fa, err := BuildLP(net, a, p)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := BuildLP(net, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Problem.NumVars() != fb.Problem.NumVars() || fa.Problem.NumConstraints() != fb.Problem.NumConstraints() {
		t.Fatal("precondition: request sets A and B must give LPs of the same shape")
	}
	p.Metrics = telemetry.NewRegistry()
	pl := NewPlanner(p)
	if _, err := pl.Plan(net, a); err != nil {
		t.Fatal(err)
	}
	pivots := p.Metrics.Counter("routing.lp_pivots")
	before := pivots.Value()
	if _, err := pl.Plan(net, b); err != nil {
		t.Fatal(err)
	}
	planned := pivots.Value() - before

	cold := DefaultParams(SurfNet)
	cold.Metrics = telemetry.NewRegistry()
	if _, err := ScheduleLP(net, b, cold); err != nil {
		t.Fatal(err)
	}
	if want := cold.Metrics.Counter("routing.lp_pivots").Value(); planned != want {
		t.Fatalf("planner spent %d pivots on the new request set, cold ScheduleLP %d", planned, want)
	}
	if hits, misses := pl.WarmStats(); hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", hits, misses)
	}
}
