package core

import (
	"testing"

	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
)

func TestAdaptiveScheduleExecutesEndToEnd(t *testing.T) {
	// Mixed adaptive distances must execute: each code is decoded on the
	// lattice matching its scheduled distance.
	net := lineNet(t, 0.9, 0.8, 0.03)
	p := routing.DefaultParams(routing.SurfNet)
	p.AdaptiveDistances = []int{3, 5, 7}
	sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: 5}}, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() == 0 {
		t.Fatal("nothing scheduled")
	}
	sawDistance := false
	for _, rs := range sched.Requests {
		for _, cr := range rs.Codes {
			if cr.Distance > 0 {
				sawDistance = true
			}
		}
	}
	if !sawDistance {
		t.Fatal("adaptive schedule carries no distances")
	}
	res, err := run(net, sched, DefaultConfig(), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != sched.AcceptedCodes() {
		t.Fatalf("outcomes %d != scheduled %d", len(res.Outcomes), sched.AcceptedCodes())
	}
	if res.DeliveredFraction() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestAdaptiveDistanceTradesFidelity(t *testing.T) {
	// On identical clean short routes the accumulated flip rate stays
	// below threshold, where a larger code must not lose to a smaller one
	// in delivered fidelity (statistically, generous margin). Fibers at
	// 0.93 give ~1% flip per hop, ~4% across the route — sub-threshold.
	net := lineNet(t, 0.93, 0.9, 0.05)
	rate := func(distances []int) float64 {
		p := routing.DefaultParams(routing.SurfNet)
		if distances != nil {
			p.AdaptiveDistances = distances
		}
		succ, total := 0, 0
		for i := 0; i < 40; i++ {
			sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: 2}}, p, nil, nil)
			if err != nil || sched.AcceptedCodes() == 0 {
				t.Fatalf("scheduling failed: %v", err)
			}
			res, err := run(net, sched, DefaultConfig(), rng.New(uint64(500+i)))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Outcomes {
				total++
				if o.Success {
					succ++
				}
			}
		}
		return float64(succ) / float64(total)
	}
	small := rate([]int{3})
	large := rate([]int{9})
	if large < small-0.05 {
		t.Fatalf("distance-9 fidelity %v markedly below distance-3 %v", large, small)
	}
}
