package faults

import (
	"math"
	"reflect"
	"testing"

	"surfnet/internal/network"
	"surfnet/internal/rng"
)

// testNet builds user(0)-switch(1)-server(2)-user(3) plus a detour fiber 1-3.
func testNet(t *testing.T) *network.Network {
	t.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 100},
		{ID: 2, Role: network.Server, Capacity: 100},
		{ID: 3, Role: network.User},
	}
	fibers := []network.Fiber{
		{ID: 0, A: 0, B: 1, Fidelity: 0.9, EntPairs: 10, EntRate: 0.5, LossProb: 0.01},
		{ID: 1, A: 1, B: 2, Fidelity: 0.9, EntPairs: 10, EntRate: 0.5, LossProb: 0.01},
		{ID: 2, A: 2, B: 3, Fidelity: 0.9, EntPairs: 10, EntRate: 0.5, LossProb: 0.01},
		{ID: 3, A: 1, B: 3, Fidelity: 0.8, EntPairs: 10, EntRate: 0.5, LossProb: 0.01},
	}
	net, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return net
}

// allFibers enumerates every fiber of net in ID order.
func allFibers(net *network.Network) func(visit func(fi int)) {
	return func(visit func(fi int)) {
		for fi := 0; fi < net.NumFibers(); fi++ {
			visit(fi)
		}
	}
}

// stepAll drives inj for slots slots, collecting events.
func stepAll(net *network.Network, inj Injector, src *rng.Source, slots int) []Event {
	var events []Event
	for slot := 0; slot < slots; slot++ {
		inj.Step(Scope{
			Slot:   slot,
			Src:    src,
			Fibers: allFibers(net),
			Nodes: func(visit func(v int)) {
				visit(2) // the server
			},
		}, func(ev Event) { events = append(events, ev) })
	}
	return events
}

func TestFiberCrashesDeterministic(t *testing.T) {
	net := testNet(t)
	run := func() []Event {
		inj := NewFiberCrashes(0.2, 3)
		return stepAll(net, inj, rng.New(7), 50)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events sampled at 20% crash probability over 50 slots")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different event streams:\n%v\n%v", a, b)
	}
	// Every crash must be followed (or terminated by run end) and each
	// repair must match an earlier crash.
	down := map[int]bool{}
	for _, ev := range a {
		switch ev.Kind {
		case FiberCrash:
			if down[ev.ID] {
				t.Fatalf("fiber %d crashed while already down at slot %d", ev.ID, ev.Slot)
			}
			down[ev.ID] = true
			if ev.Until != ev.Slot+3 {
				t.Fatalf("crash until %d, want %d", ev.Until, ev.Slot+3)
			}
		case FiberRepair:
			if !down[ev.ID] {
				t.Fatalf("fiber %d repaired without a crash at slot %d", ev.ID, ev.Slot)
			}
			down[ev.ID] = false
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
	}
}

func TestFiberCrashesRepairExpiry(t *testing.T) {
	inj := NewFiberCrashes(1, 2) // crash every visited fiber, 2-slot repairs
	src := rng.New(1)
	one := func(visit func(fi int)) { visit(0) }
	inj.Step(Scope{Slot: 0, Src: src, Fibers: one}, nil)
	if !inj.FiberDown(0) {
		t.Fatal("fiber 0 should be down after certain crash")
	}
	inj.Step(Scope{Slot: 1, Src: src, Fibers: one}, nil)
	if !inj.FiberDown(0) {
		t.Fatal("fiber 0 should stay down within the repair window")
	}
	// Slot 2: repair expires, and with prob 1 it immediately crashes again.
	var kinds []Kind
	inj.Step(Scope{Slot: 2, Src: src, Fibers: one}, func(ev Event) { kinds = append(kinds, ev.Kind) })
	if !reflect.DeepEqual(kinds, []Kind{FiberRepair, FiberCrash}) {
		t.Fatalf("slot 2 events = %v, want [fiber_repair fiber_crash]", kinds)
	}
}

func TestNodeOutages(t *testing.T) {
	inj := NewNodeOutages(1, 5)
	src := rng.New(1)
	inj.Step(Scope{Slot: 0, Src: src, Nodes: func(visit func(v int)) { visit(2) }}, nil)
	if !inj.NodeDown(2) {
		t.Fatal("node 2 should be down")
	}
	if inj.NodeDown(1) {
		t.Fatal("node 1 was never in scope")
	}
	if inj.FiberDown(0) {
		t.Fatal("node outages must not down fibers")
	}
}

func TestRegionalDownsIncidentFibers(t *testing.T) {
	net := testNet(t)
	inj := NewRegional(net, 1, 4)
	src := rng.New(1)
	var events []Event
	// Scope only fiber 1 (nodes 1 and 2): both endpoints crash regionally.
	inj.Step(Scope{Slot: 0, Src: src, Fibers: func(visit func(fi int)) { visit(1) }},
		func(ev Event) { events = append(events, ev) })
	if len(events) != 2 || events[0].Kind != RegionCrash || events[1].Kind != RegionCrash {
		t.Fatalf("events = %v, want two region crashes", events)
	}
	if !inj.NodeDown(1) || !inj.NodeDown(2) {
		t.Fatal("struck region nodes should be down")
	}
	// Node 1's incident fibers: 0, 1, 3; node 2's: 1, 2. All down together.
	for fi := 0; fi < net.NumFibers(); fi++ {
		if !inj.FiberDown(fi) {
			t.Fatalf("fiber %d should be down with both its regions struck", fi)
		}
	}
}

func TestDriftDecaysAndRecovers(t *testing.T) {
	inj := NewDrift(1, 3, 0.9)
	src := rng.New(1)
	one := func(visit func(fi int)) { visit(0) }
	inj.Step(Scope{Slot: 0, Src: src, Fibers: one}, nil)
	if inj.FiberDown(0) {
		t.Fatal("drift must not take the fiber down")
	}
	// Episode starts at slot 0: gamma scaled by 0.9^(slot-start+1).
	for k, slot := range []int{0, 1, 2} {
		inj.Step(Scope{Slot: slot, Src: src, Fibers: one}, nil)
		want := 0.95 * math.Pow(0.9, float64(k+1))
		if got := inj.Gamma(0, 0.95); math.Abs(got-want) > 1e-12 {
			t.Fatalf("slot %d: gamma = %v, want %v", slot, got, want)
		}
	}
	// Slot 3: the 3-slot window ends; with prob 1 a fresh episode begins,
	// so the decay restarts at one slot's worth.
	var kinds []Kind
	inj.Step(Scope{Slot: 3, Src: src, Fibers: one}, func(ev Event) { kinds = append(kinds, ev.Kind) })
	if !reflect.DeepEqual(kinds, []Kind{DriftEnd, DriftStart}) {
		t.Fatalf("slot 3 events = %v, want [drift_end drift_start]", kinds)
	}
	if got, want := inj.Gamma(0, 0.95), 0.95*0.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fresh episode gamma = %v, want %v", got, want)
	}
}

func TestScriptedTimetable(t *testing.T) {
	inj := NewScripted([]ScriptedFault{
		{Slot: 5, Duration: 3, ID: 1},            // fiber 1 down slots 5-7
		{Slot: 2, Duration: 4, Node: true, ID: 2}, // node 2 down slots 2-5
	})
	src := rng.New(1)
	downAt := map[int]bool{}
	nodeAt := map[int]bool{}
	for slot := 0; slot < 10; slot++ {
		inj.Step(Scope{Slot: slot, Src: src}, nil)
		downAt[slot] = inj.FiberDown(1)
		nodeAt[slot] = inj.NodeDown(2)
	}
	for slot := 0; slot < 10; slot++ {
		wantFiber := slot >= 5 && slot < 8
		wantNode := slot >= 2 && slot < 6
		if downAt[slot] != wantFiber {
			t.Errorf("slot %d: fiber 1 down = %v, want %v", slot, downAt[slot], wantFiber)
		}
		if nodeAt[slot] != wantNode {
			t.Errorf("slot %d: node 2 down = %v, want %v", slot, nodeAt[slot], wantNode)
		}
	}
}

func TestComposeSemantics(t *testing.T) {
	if Compose() != nil {
		t.Fatal("empty compose should be nil")
	}
	if Compose(nil, nil) != nil {
		t.Fatal("all-nil compose should be nil")
	}
	fc := NewFiberCrashes(0.5, 2)
	if Compose(nil, fc) != fc {
		t.Fatal("single-child compose should return the child")
	}
	inj := Compose(
		NewScripted([]ScriptedFault{{Slot: 0, Duration: 10, ID: 0}}),
		NewScripted([]ScriptedFault{{Slot: 0, Duration: 10, Node: true, ID: 1}}),
	)
	inj.Step(Scope{Slot: 0, Src: rng.New(1)}, nil)
	if !inj.FiberDown(0) || !inj.NodeDown(1) {
		t.Fatal("composed injector must surface both children's faults")
	}
	if inj.FiberDown(1) || inj.NodeDown(0) {
		t.Fatal("composed injector invented faults")
	}
}

func TestProfileBuildAndValidate(t *testing.T) {
	net := testNet(t)
	if (Profile{}).Enabled() {
		t.Fatal("zero profile should be disabled")
	}
	if (Profile{}).Build(net) != nil {
		t.Fatal("zero profile should build a nil injector")
	}
	ok := Profile{
		FiberCrashProb: 0.1, FiberRepairSlots: 5,
		NodeOutageProb: 0.05, NodeRepairSlots: 8,
		RegionalProb: 0.01, RegionalRepairSlots: 6,
		DriftProb: 0.1, DriftWindow: 12, DriftDecay: 0.95,
		Script: []ScriptedFault{{Slot: 3, Duration: 2, ID: 1}},
	}
	if err := ok.ValidateAgainst(net); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if ok.Build(net) == nil {
		t.Fatal("enabled profile built a nil injector")
	}
	bad := []Profile{
		{FiberCrashProb: -0.1},
		{FiberCrashProb: 1.5},
		{FiberCrashProb: 0.1, FiberRepairSlots: -1},
		{NodeOutageProb: 2},
		{NodeOutageProb: 0.1, NodeRepairSlots: -2},
		{RegionalProb: -1},
		{DriftProb: 1.1},
		{DriftProb: 0.1, DriftWindow: -1},
		{DriftProb: 0.1, DriftDecay: 1.5},
		{Script: []ScriptedFault{{Slot: -1}}},
		{Script: []ScriptedFault{{Duration: -1}}},
		{Script: []ScriptedFault{{Slot: math.MaxInt, Duration: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
	outOfRange := []Profile{
		{Script: []ScriptedFault{{Slot: 0, Duration: 1, ID: 99}}},
		{Script: []ScriptedFault{{Slot: 0, Duration: 1, Node: true, ID: 99}}},
	}
	for i, p := range outOfRange {
		if err := p.ValidateAgainst(net); err == nil {
			t.Errorf("out-of-range script %d accepted", i)
		}
	}
}

// TestComposedProfileDeterministic pins the whole-profile determinism
// contract: identical seeds and scopes produce identical event streams and
// fault state, regardless of how many scenario components are active.
func TestComposedProfileDeterministic(t *testing.T) {
	net := testNet(t)
	p := Profile{
		FiberCrashProb: 0.1, FiberRepairSlots: 4,
		NodeOutageProb: 0.05, NodeRepairSlots: 6,
		RegionalProb: 0.02, RegionalRepairSlots: 5,
		DriftProb: 0.1, DriftWindow: 8, DriftDecay: 0.97,
		Script: []ScriptedFault{{Slot: 10, Duration: 20, ID: 2}},
	}
	run := func() ([]Event, []float64) {
		inj := p.Build(net)
		src := rng.New(42)
		var events []Event
		var gammas []float64
		for slot := 0; slot < 60; slot++ {
			inj.Step(Scope{
				Slot:   slot,
				Src:    src,
				Fibers: allFibers(net),
				Nodes:  func(visit func(v int)) { visit(2) },
			}, func(ev Event) { events = append(events, ev) })
			for fi := 0; fi < net.NumFibers(); fi++ {
				gammas = append(gammas, inj.Gamma(fi, net.Fiber(fi).Fidelity))
			}
		}
		return events, gammas
	}
	ev1, g1 := run()
	ev2, g2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("event streams diverge across identical runs")
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Fatal("gamma streams diverge across identical runs")
	}
	if len(ev1) == 0 {
		t.Fatal("composed profile produced no events in 60 slots")
	}
}

// TestLongOutagesSaturate pins that an outage whose end slot would overflow
// int stays in force instead of wrapping to an end before its start. The
// script passes Validate, and the stochastic scenarios accept any
// non-negative repair time.
func TestLongOutagesSaturate(t *testing.T) {
	net := testNet(t)
	script, err := ParseScript("2:fiber:0:9223372036854775807,2:node:2:9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	if err := (Profile{Script: script}).ValidateAgainst(net); err != nil {
		t.Fatal(err)
	}
	fiberDown := func(inj Injector) bool { return inj.FiberDown(0) }
	nodeDown := func(inj Injector) bool { return inj.NodeDown(2) }
	drifting := func(inj Injector) bool { return inj.Gamma(0, 0.95) < 0.95 }
	cases := []struct {
		name string
		inj  Injector
		hit  func(Injector) bool
	}{
		{"scripted fiber", NewScripted(script), fiberDown},
		{"scripted node", NewScripted(script), nodeDown},
		{"fiber crash", NewFiberCrashes(1, math.MaxInt), fiberDown},
		{"node outage", NewNodeOutages(1, math.MaxInt), nodeDown},
		{"regional", NewRegional(net, 1, math.MaxInt), fiberDown},
		{"drift", NewDrift(1, math.MaxInt, 0.9), drifting},
	}
	for _, tc := range cases {
		var untils []int
		for _, slot := range []int{2, 3, 1000} {
			tc.inj.Step(Scope{
				Slot:   slot,
				Src:    rng.New(1),
				Fibers: func(visit func(fi int)) { visit(0) },
				Nodes:  func(visit func(v int)) { visit(2) },
			}, func(ev Event) { untils = append(untils, ev.Until) })
			if !tc.hit(tc.inj) {
				t.Fatalf("%s: outage over at slot %d", tc.name, slot)
			}
		}
		for _, u := range untils {
			if u != math.MaxInt {
				t.Fatalf("%s: event until %d, want math.MaxInt", tc.name, u)
			}
		}
	}
}
