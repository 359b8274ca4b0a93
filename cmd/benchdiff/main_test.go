package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"surfnet/internal/ledger"
)

// writeReport writes a snapshot into dir and returns its path.
func writeReport(t *testing.T, dir, name string, rep ledger.Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := ledger.Write(path, &rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseline() ledger.Report {
	return ledger.Report{
		CPU: "test-cpu",
		Benchmarks: []ledger.Benchmark{
			{Name: "BenchmarkMWPMDecode/d=5", NsPerOp: 13000, BytesPerOp: 256, AllocsPerOp: 3,
				Extra: map[string]float64{"p99-ns/op": 19000}},
			{Name: "BenchmarkSurfNetDecoder/d=9", NsPerOp: 100000, BytesPerOp: 1024, AllocsPerOp: 10},
		},
	}
}

func TestBenchdiffPassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", baseline())
	newRep := baseline()
	newRep.Benchmarks[0].NsPerOp *= 1.10 // +10% < default 20% band
	newP := writeReport(t, dir, "new.json", newRep)

	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("run = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "within tolerance") {
		t.Fatalf("missing pass summary:\n%s", out.String())
	}
}

// TestBenchdiffFailsOnNsRegression pins the acceptance criterion: an injected
// >=25% ns/op regression must exit non-zero under the default tolerance.
func TestBenchdiffFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", baseline())
	newRep := baseline()
	newRep.Benchmarks[0].NsPerOp *= 1.25
	newP := writeReport(t, dir, "new.json", newRep)

	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("missing REGRESSION verdict:\n%s", out.String())
	}
	// A widened tolerance waves the same delta through.
	if code := run([]string{"-tol", "0.5", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("run -tol 0.5 = %d, want 0", code)
	}
}

func TestBenchdiffGatesAllocsStrictly(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", baseline())
	newRep := baseline()
	newRep.Benchmarks[1].AllocsPerOp = 11 // one extra alloc
	newP := writeReport(t, dir, "new.json", newRep)

	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1 on alloc increase\n%s", code, out.String())
	}
	if code := run([]string{"-alloc-tol", "0.2", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("run -alloc-tol 0.2 = %d, want 0", code)
	}
}

// TestBenchdiffExtraMetricsReportOnly: percentile families show in the table
// but never gate, even when they regress hard.
func TestBenchdiffExtraMetricsReportOnly(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", baseline())
	newRep := baseline()
	newRep.Benchmarks[0].Extra["p99-ns/op"] = 100000 // 5x tail blowup
	newP := writeReport(t, dir, "new.json", newRep)

	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, want 0 (extras are not gated)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Fatalf("extra regression not reported:\n%s", out.String())
	}
}

func TestBenchdiffMissingAndNewBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", baseline())
	newRep := baseline()
	newRep.Benchmarks = newRep.Benchmarks[:1] // drop SurfNetDecoder
	newRep.Benchmarks = append(newRep.Benchmarks, ledger.Benchmark{Name: "BenchmarkNewThing", NsPerOp: 5})
	newP := writeReport(t, dir, "new.json", newRep)

	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, want 0 (missing is a warning by default)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing (skipped)") ||
		!strings.Contains(out.String(), "new benchmark (no baseline): BenchmarkNewThing") {
		t.Fatalf("missing/new reporting wrong:\n%s", out.String())
	}
	if code := run([]string{"-require-all", oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("run -require-all = %d, want 1", code)
	}
}

func TestBenchdiffUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Fatalf("one arg: run = %d, want 2", code)
	}
	if code := run([]string{"nope1.json", "nope2.json"}, &out, &errb); code != 2 {
		t.Fatalf("unreadable: run = %d, want 2", code)
	}
}

// TestDiffVerdicts pins each verdict of the ledger table, the zero baselines
// included: a zero-alloc row that starts allocating is a gated regression on
// B/op and allocs/op, while ns/op and extras from zero are only new.
func TestDiffVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name        string
		old, new    ledger.Benchmark
		wantMetric  string
		wantVerdict string
		regressions int
	}{
		{"ns within band", ledger.Benchmark{NsPerOp: 100}, ledger.Benchmark{NsPerOp: 110}, "ns/op", "ok", 0},
		{"ns regression", ledger.Benchmark{NsPerOp: 100}, ledger.Benchmark{NsPerOp: 150}, "ns/op", "REGRESSION", 1},
		{"ns improved", ledger.Benchmark{NsPerOp: 100}, ledger.Benchmark{NsPerOp: 50}, "ns/op", "improved", 0},
		{"ns from zero", ledger.Benchmark{}, ledger.Benchmark{NsPerOp: 100}, "ns/op", "new", 0},
		{"bytes from zero", ledger.Benchmark{NsPerOp: 100}, ledger.Benchmark{NsPerOp: 100, BytesPerOp: 4096}, "B/op", "REGRESSION", 1},
		{"allocs from zero", ledger.Benchmark{NsPerOp: 100}, ledger.Benchmark{NsPerOp: 100, AllocsPerOp: 5}, "allocs/op", "REGRESSION", 1},
		{"allocs to zero", ledger.Benchmark{NsPerOp: 100, AllocsPerOp: 5}, ledger.Benchmark{NsPerOp: 100}, "allocs/op", "improved", 0},
		{"allocs one up", ledger.Benchmark{NsPerOp: 100, AllocsPerOp: 10}, ledger.Benchmark{NsPerOp: 100, AllocsPerOp: 11}, "allocs/op", "REGRESSION", 1},
		{"extra from zero", ledger.Benchmark{NsPerOp: 100, Extra: map[string]float64{"shed/op": 0}},
			ledger.Benchmark{NsPerOp: 100, Extra: map[string]float64{"shed/op": 7}}, "shed/op", "new", 0},
		{"extra regression", ledger.Benchmark{NsPerOp: 100, Extra: map[string]float64{"p99-ns/op": 10}},
			ledger.Benchmark{NsPerOp: 100, Extra: map[string]float64{"p99-ns/op": 50}}, "p99-ns/op", "regression (not gated)", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.old.Name, tc.new.Name = "BenchmarkX", "BenchmarkX"
			var out bytes.Buffer
			got := diff(&out, map[string]ledger.Benchmark{"BenchmarkX": tc.old},
				map[string]ledger.Benchmark{"BenchmarkX": tc.new}, 0.2, 0.1, 0, false)
			if got != tc.regressions {
				t.Fatalf("regressions = %d, want %d\n%s", got, tc.regressions, out.String())
			}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) >= 6 && f[0] == "BenchmarkX" && f[1] == tc.wantMetric {
					if v := strings.Join(f[5:], " "); v != tc.wantVerdict {
						t.Fatalf("%s verdict = %q, want %q\n%s", tc.wantMetric, v, tc.wantVerdict, out.String())
					}
					return
				}
			}
			t.Fatalf("no %s row:\n%s", tc.wantMetric, out.String())
		})
	}
}

// TestBenchdiffGatesZeroAllocBaseline: the committed ledger's zero-alloc
// rows (MWPMDecode/d=5/scratch) must fail the gate when they start
// allocating, at any tolerance.
func TestBenchdiffGatesZeroAllocBaseline(t *testing.T) {
	dir := t.TempDir()
	old := ledger.Report{Benchmarks: []ledger.Benchmark{
		{Name: "BenchmarkMWPMDecode/d=5/scratch", NsPerOp: 9000},
	}}
	oldP := writeReport(t, dir, "old.json", old)
	old.Benchmarks[0].AllocsPerOp, old.Benchmarks[0].BytesPerOp = 5, 4096
	newP := writeReport(t, dir, "new.json", old)

	var out, errb bytes.Buffer
	if code := run([]string{"-alloc-tol", "0.25", "-bytes-tol", "0.5", oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1 on 0->5 allocs/op\n%s", code, out.String())
	}
	if !strings.Contains(errb.String(), "2 regression(s)") {
		t.Fatalf("want both B/op and allocs/op gated:\n%s%s", out.String(), errb.String())
	}
}
