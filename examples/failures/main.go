// Failure injection: fiber crashes and local recovery paths (§V-B).
//
// The example builds a ring-shaped network with an alternate route, injects
// per-slot fiber outages, and compares online execution with and without the
// local recovery mechanism ("a node can locally replace a failed route with
// a recovery path leading to the next designated node").
//
// Run with: go run ./examples/failures
package main

import (
	"fmt"
	"log"

	"surfnet"
)

func main() {
	// user(0) - switch(1) - server(2) - switch(3) - user(4), with a
	// detour switch(5) bridging 1 and 3.
	nodes := []surfnet.Node{
		{ID: 0, Role: surfnet.User},
		{ID: 1, Role: surfnet.Switch, Capacity: 2000},
		{ID: 2, Role: surfnet.Server, Capacity: 4000},
		{ID: 3, Role: surfnet.Switch, Capacity: 2000},
		{ID: 4, Role: surfnet.User},
		{ID: 5, Role: surfnet.Switch, Capacity: 2000},
	}
	mk := func(id, a, b int, fid float64) surfnet.Fiber {
		return surfnet.Fiber{ID: id, A: a, B: b, Fidelity: fid, EntPairs: 2000, EntRate: 0.8, LossProb: 0.02}
	}
	fibers := []surfnet.Fiber{
		mk(0, 0, 1, 0.95), mk(1, 1, 2, 0.95), mk(2, 2, 3, 0.95), mk(3, 3, 4, 0.95),
		mk(4, 1, 5, 0.9), mk(5, 5, 3, 0.9), // recovery detour
	}
	net, err := surfnet.NewNetwork(nodes, fibers)
	if err != nil {
		log.Fatalf("building network: %v", err)
	}
	reqs := []surfnet.Request{{Src: 0, Dst: 4, Messages: 20}}
	sched, err := surfnet.ScheduleRoutes(net, reqs, surfnet.DefaultRouting(surfnet.DesignSurfNet))
	if err != nil {
		log.Fatalf("scheduling: %v", err)
	}
	fmt.Printf("scheduled %d codes over the backbone; injecting 5%%/slot fiber crashes (20-slot repairs)\n\n",
		sched.AcceptedCodes())

	fmt.Printf("%-18s %10s %10s %10s %12s\n", "mode", "delivered", "fidelity", "latency", "recoveries")
	for _, disable := range []bool{false, true} {
		cfg := surfnet.DefaultEngine()
		cfg.Faults = &surfnet.FaultProfile{FiberCrashProb: 0.05, FiberRepairSlots: 20}
		cfg.MaxSlots = 1000
		cfg.DisableRecovery = disable
		res, err := surfnet.Execute(net, sched, cfg, surfnet.NewRand(3))
		if err != nil {
			log.Fatalf("executing: %v", err)
		}
		recoveries := 0
		for _, o := range res.Outcomes {
			recoveries += o.Recoveries
		}
		mode := "with recovery"
		if disable {
			mode = "without recovery"
		}
		fmt.Printf("%-18s %10.2f %10.3f %10.1f %12d\n",
			mode, res.DeliveredFraction(), res.Fidelity(), res.MeanLatency(), recoveries)
	}
	fmt.Println("\nRecovery reroutes blocked segments through the detour switch, cutting the")
	fmt.Println("time codes spend waiting for crashed fibers to repair.")
}
