// Command routesolve schedules a batch of random requests on a generated
// scenario with the paper's LP-relaxation-with-rounding scheduler and prints
// the resulting routes: per-request acceptance, Core/Support paths, error
// correction servers, and scheduled noise, followed by the solver's telemetry
// (simplex pivots, iterations, rounding decisions, fallbacks).
//
// Usage:
//
//	routesolve [-design surfnet|raw|purification-1|purification-2|purification-9]
//	           [-scenario ...] [-connection ...] [-requests K] [-messages M] [-seed S]
//	           [-listen ADDR] [-log-level LEVEL] [-metrics-out FILE] [-trace-out FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"surfnet"
	"surfnet/internal/cliutil"
	"surfnet/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() (exit int) {
	design := flag.String("design", "surfnet", "network design: surfnet, raw, purification-1/2/9")
	scenario := flag.String("scenario", "sufficient", "facility scenario")
	connection := flag.String("connection", "good", "fiber quality: good or poor")
	requests := flag.Int("requests", 6, "number of random requests")
	messages := flag.Int("messages", 3, "maximum surface codes per request")
	seed := flag.Uint64("seed", 1, "random seed")
	var obs cliutil.Observability
	obs.Register(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(); err != nil {
		slog.Error("routesolve: startup failed", "err", err)
		return 1
	}
	// The solver report below always needs a registry, -metrics-out or not.
	obs.ForceMetrics()
	defer cliutil.ExitOnFinishError(&obs, &exit)

	var d surfnet.Design
	switch *design {
	case "surfnet":
		d = surfnet.DesignSurfNet
	case "raw":
		d = surfnet.DesignRaw
	case "purification-1":
		d = surfnet.DesignPurification1
	case "purification-2":
		d = surfnet.DesignPurification2
	case "purification-9":
		d = surfnet.DesignPurification9
	default:
		slog.Error("routesolve: unknown design", "design", *design)
		return 1
	}
	var fac surfnet.Facilities
	switch *scenario {
	case "abundant":
		fac = surfnet.Abundant
	case "sufficient":
		fac = surfnet.Sufficient
	case "insufficient":
		fac = surfnet.Insufficient
	default:
		slog.Error("routesolve: unknown scenario", "scenario", *scenario)
		return 1
	}
	fr := surfnet.GoodConnection
	if *connection == "poor" {
		fr = surfnet.PoorConnection
	}

	src := surfnet.NewRand(*seed)
	net, err := surfnet.GenerateNetwork(surfnet.DefaultTopology(fac, fr), src)
	if err != nil {
		slog.Error("routesolve: generating network failed", "err", err)
		return 1
	}
	reqs, err := surfnet.GenRequests(net, *requests, *messages, src.Split("reqs"))
	if err != nil {
		slog.Error("routesolve: generating requests failed", "err", err)
		return 1
	}
	p := surfnet.DefaultRouting(d)
	p.Metrics = obs.Registry
	p.Tracer = obs.TracerOrNil()
	sched, err := surfnet.ScheduleRoutes(net, reqs, p)
	if err != nil {
		slog.Error("routesolve: scheduling failed", "err", err)
		return 1
	}

	fmt.Printf("design=%v scenario=%s connection=%s requests=%d\n", d, *scenario, *connection, len(reqs))
	fmt.Printf("throughput=%.3f accepted=%d expected-fidelity=%.3f\n\n",
		sched.Throughput(), sched.AcceptedCodes(), sched.MeanExpectedFidelity())
	for i, rs := range sched.Requests {
		fmt.Printf("request %d: %d -> %d, %d/%d codes scheduled\n",
			i, rs.Request.Src, rs.Request.Dst, rs.Accepted(), rs.Request.Messages)
		for c, cr := range rs.Codes {
			fmt.Printf("  code %d: core=%v support=%v servers=%v coreNoise=%.3f totalNoise=%.3f fid=%.3f\n",
				c, cr.CorePath, cr.SupportPath, cr.Servers, cr.CoreNoise, cr.TotalNoise, cr.ExpectedFidelity())
		}
	}
	printSolverStats(obs.Registry.Snapshot())
	return 0
}

// printSolverStats reports the scheduler counters recorded during the solve.
func printSolverStats(snap telemetry.Snapshot) {
	c := snap.Counters
	fmt.Printf("\nsolver: lp-solves=%d pivots=%d iterations=%d degenerate-pivots=%d\n",
		c["routing.lp_solves"], c["routing.lp_pivots"],
		c["routing.lp_iterations"], c["routing.lp_degenerate_pivots"])
	fmt.Printf("rounding: up=%d down=%d greedy-fallbacks=%d\n",
		c["routing.rounded_up"], c["routing.rounded_down"], c["routing.greedy_fallbacks"])
	fmt.Printf("admission: codes-admitted=%d unadmitted=%d\n",
		c["routing.codes_admitted"], c["routing.codes_unadmitted"])
}
