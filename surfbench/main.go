// Command surfbench is the repository's benchmark. It runs one named
// workload through the program's public Go APIs, checks the outputs, and
// prints one JSON result line:
//
//	surfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: service-light and service-overload host the routing daemon
// in-process on a loopback listener and drive it open-loop over HTTP;
// threshold regenerates the Fig. 8 grid. With --trace 0 the result carries
// the end-to-end metrics; with --trace 1 the run is repeated with spans
// recorded around each layer's calls and the result carries the per-layer
// metrics instead. README.md maps every metric to its layer and workload.
//
// The process exits non-zero when an output check fails (after printing the
// result with "correct": false) or when the workload cannot run at all
// (without printing a result).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run; every workload reports all
// of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"ok_share", "ratio"},
	{"fidelity", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"http.submit_us.p50", "us"},
	{"http.submit_us.tail", "us"},
	{"http.shed_share", "ratio"},
	{"queue.wait_ms.p50", "ms"},
	{"queue.wait_ms.p99", "ms"},
	{"epoch.k.mean", "count"},
	{"epoch.count", "count"},
	{"gen.late_ms.tail", "ms"},
	{"plan.self_ms.p50", "ms"},
	{"plan.self_ms.tail", "ms"},
	{"lp.pivots.mean", "count"},
	{"lp.degenerate_share", "ratio"},
	{"lp.rows.mean", "count"},
	{"lp.cols.mean", "count"},
	{"lp.warm_hit_share", "ratio"},
	{"execute.self_ms.p50", "ms"},
	{"execute.self_ms.tail", "ms"},
	{"decode.self_us.p50.surfnet", "us"},
	{"decode.self_us.tail.surfnet", "us"},
	{"decode.self_us.p50.union-find", "us"},
	{"decode.self_us.tail.union-find", "us"},
	{"decode.calls", "count"},
	{"sample.self_us.p50", "us"},
	{"frame.self_us.p50", "us"},
	{"pool.busy_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"xcheck.plan_ratio", "ratio"},
	{"xcheck.execute_ratio", "ratio"},
}

// runOpts are one run's settings.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spanDir receives the traced run's spans.
	spanDir string
}

// outcome is what a workload hands back: metric values by name, the
// operation counts, and every output check that failed.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runOpts) (*outcome, error){
	"service-light":    func(ctx context.Context, o runOpts) (*outcome, error) { return runService(ctx, lightLoad, o) },
	"service-overload": func(ctx context.Context, o runOpts) (*outcome, error) { return runService(ctx, overload, o) },
	"threshold":        runThreshold,
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: service-light, service-overload, or threshold")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "surfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "surfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	fmt.Printf("surfbench: workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	opts := runOpts{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: *spanDir}
	out, err := fn(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "surfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	} else {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "surfbench: %s: metric %s missing or not finite (%v)\n", *name, d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "surfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedSetup runs build reps times and returns the median duration in
// seconds with the last build's value; earlier builds are released with
// close. Repeating keeps one slow first build (cold caches, page faults)
// out of setup_s, and collecting garbage before each build, untimed, gives
// every build the same heap to allocate into instead of charging a
// collection to whichever build happens to trigger it.
func timedSetup[T any](reps int, build func() (T, error), close func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB,
// falling back to the Go runtime's total obtained memory where /proc is
// missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
