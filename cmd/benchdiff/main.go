// Command benchdiff is the perf-regression ledger's gate: it compares two
// BENCH_*.json snapshots written by benchjson and exits non-zero when any
// benchmark regressed beyond tolerance, so `make bench-diff` (and the CI job)
// can hold the line PR-over-PR.
//
// Metrics are gated differently because they travel differently across
// machines: allocs/op is deterministic and gated strictly (any increase
// beyond -alloc-tol fails), B/op nearly so (-bytes-tol), and either one
// growing from a zero baseline always fails; ns/op depends on the host and
// gets the -tol band (CI, comparing against a snapshot from different
// hardware, runs with a wide -tol; local runs use the tight default). Extra metric families (wall-latency percentiles) are reported
// but never gated — short benchtimes make tails too noisy to block on.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -tol 0.5 -alloc-tol 0 BENCH_decoder.json /tmp/BENCH_new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"surfnet/internal/ledger"
)

// index keys a snapshot's benchmarks by name.
func index(rep *ledger.Report) map[string]ledger.Benchmark {
	idx := make(map[string]ledger.Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		idx[b.Name] = b
	}
	return idx
}

// row is one compared metric of one benchmark. Only gated rows fail the
// diff; counted rows are the allocation counts, which a zero baseline still
// gates: growth from 0 B/op or 0 allocs/op (a zero-alloc path that starts
// allocating) has no relative band and regresses outright.
type row struct {
	metric   string
	old, new float64
	tol      float64
	gated    bool
	counted  bool
}

// verdict classifies the row's delta against its tolerance.
func (r row) verdict() string {
	switch {
	case r.old == 0 && r.counted && r.new > 0:
		return "REGRESSION"
	case r.old == 0:
		return "new"
	case r.new > r.old*(1+r.tol):
		return "REGRESSION"
	case r.new < r.old*(1-r.tol):
		return "improved"
	default:
		return "ok"
	}
}

// pct renders a relative delta.
func pct(old, new float64) string {
	if old == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// diff compares old against new and writes the ledger table; it returns the
// number of gated regressions.
func diff(w io.Writer, oldIdx, newIdx map[string]ledger.Benchmark, tol, bytesTol, allocTol float64, requireAll bool) int {
	names := make([]string, 0, len(oldIdx))
	for n := range oldIdx {
		names = append(names, n)
	}
	sort.Strings(names)

	regressions := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCHMARK\tMETRIC\tOLD\tNEW\tDELTA\tVERDICT")
	for _, name := range names {
		o := oldIdx[name]
		n, ok := newIdx[name]
		if !ok {
			if requireAll {
				fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tMISSING\n", name)
				regressions++
			} else {
				fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing (skipped)\n", name)
			}
			continue
		}
		rows := []row{
			{"ns/op", o.NsPerOp, n.NsPerOp, tol, true, false},
			{"B/op", float64(o.BytesPerOp), float64(n.BytesPerOp), bytesTol, true, true},
			{"allocs/op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), allocTol, true, true},
		}
		extras := make([]string, 0, len(o.Extra))
		for unit := range o.Extra {
			extras = append(extras, unit)
		}
		sort.Strings(extras)
		for _, unit := range extras {
			if nv, ok := n.Extra[unit]; ok {
				rows = append(rows, row{unit, o.Extra[unit], nv, tol, false, false})
			}
		}
		for _, r := range rows {
			if r.old == 0 && r.new == 0 {
				continue // metric absent on both sides (e.g. no -benchmem)
			}
			v := r.verdict()
			if !r.gated && v == "REGRESSION" {
				v = "regression (not gated)"
			}
			if r.gated && v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t%s\t%s\n", name, r.metric, r.old, r.new, pct(r.old, r.new), v)
		}
	}
	tw.Flush()

	// New benchmarks are informational: the ledger grows, nothing to gate.
	added := make([]string, 0)
	for n := range newIdx {
		if _, ok := oldIdx[n]; !ok {
			added = append(added, n)
		}
	}
	sort.Strings(added)
	for _, n := range added {
		fmt.Fprintf(w, "new benchmark (no baseline): %s\n", n)
	}
	return regressions
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0.20, "relative ns/op increase tolerated before failing (0.20 = +20%)")
	bytesTol := fs.Float64("bytes-tol", 0.10, "relative B/op increase tolerated")
	allocTol := fs.Float64("alloc-tol", 0.0, "relative allocs/op increase tolerated (0 = any increase fails)")
	requireAll := fs.Bool("require-all", false, "fail when a baseline benchmark is missing from the new snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] OLD.json NEW.json")
		return 2
	}
	oldRep, err := ledger.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newRep, err := ledger.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	oldIdx, newIdx := index(oldRep), index(newRep)
	if oldRep.CPU != "" && newRep.CPU != "" && oldRep.CPU != newRep.CPU {
		fmt.Fprintf(stdout, "note: snapshots from different CPUs (%q vs %q); ns/op deltas are indicative only\n",
			oldRep.CPU, newRep.CPU)
	}
	regressions := diff(stdout, oldIdx, newIdx, *tol, *bytesTol, *allocTol, *requireAll)
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond tolerance (ns/op +%.0f%%, B/op +%.0f%%, allocs/op +%.0f%%)\n",
			regressions, *tol*100, *bytesTol*100, *allocTol*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within tolerance\n", len(oldIdx))
	return 0
}
