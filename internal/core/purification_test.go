package core

import (
	"testing"

	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
)

// purifSchedule schedules one purification message over the line network.
func purifSchedule(t *testing.T, net *network.Network, d routing.Design) routing.Schedule {
	t.Helper()
	sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: 1}},
		routing.DefaultParams(d), nil, nil)
	if err != nil || sched.AcceptedCodes() == 0 {
		t.Fatalf("scheduling failed: %v", err)
	}
	return sched
}

func TestPairLifetimeGatesDelivery(t *testing.T) {
	// Purification-9 needs 10 simultaneous live pairs per fiber. With a
	// short lifetime and a slow generation rate the chain can essentially
	// never assemble; with a long lifetime it always does.
	net := lineNet(t, 0.9, 0.3, 0.02)
	sched := purifSchedule(t, net, routing.Purification9)
	delivered := func(lifetime int) float64 {
		cfg := DefaultConfig()
		cfg.PairLifetime = lifetime
		cfg.MaxSlots = 300
		n := 0
		const trials = 40
		for i := 0; i < trials; i++ {
			res, err := run(net, sched, cfg, rng.New(uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			n += len(res.Outcomes)
			for _, o := range res.Outcomes {
				if !o.Delivered {
					n--
				}
			}
		}
		return float64(n) / float64(trials)
	}
	short := delivered(5)
	long := delivered(200)
	if long < 0.9 {
		t.Fatalf("long-lived pairs should deliver reliably, got %v", long)
	}
	if short > long-0.3 {
		t.Fatalf("short pair lifetime should gate delivery: short %v vs long %v", short, long)
	}
}

func TestSwapEfficiencyCostsFidelity(t *testing.T) {
	// Lossier swaps must reduce purification fidelity on a multi-hop path.
	net := lineNet(t, 0.95, 0.8, 0.02)
	sched := purifSchedule(t, net, routing.Purification2)
	fidelity := func(swapEff float64) float64 {
		cfg := DefaultConfig()
		cfg.SwapEfficiency = swapEff
		succ := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			res, err := run(net, sched, cfg, rng.New(uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Outcomes {
				if o.Success {
					succ++
				}
			}
		}
		return float64(succ) / float64(trials)
	}
	clean := fidelity(1.0)
	lossy := fidelity(0.7)
	if lossy >= clean {
		t.Fatalf("swap losses should cost fidelity: %v vs %v", lossy, clean)
	}
}

func TestSwapEfficiencyValidation(t *testing.T) {
	net := lineNet(t, 0.9, 0.5, 0.02)
	sched := purifSchedule(t, net, routing.Purification1)
	cfg := DefaultConfig()
	cfg.SwapEfficiency = 1.5
	if _, err := run(net, sched, cfg, rng.New(1)); err == nil {
		t.Error("SwapEfficiency > 1 should fail validation")
	}
	cfg = DefaultConfig()
	cfg.PairLifetime = -1
	if _, err := run(net, sched, cfg, rng.New(1)); err == nil {
		t.Error("negative PairLifetime should fail validation")
	}
}
