package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkSurfNetDecoder/d=9-8   \t  1215\t    987654 ns/op\t  120 B/op\t   3 allocs/op", "surfnet")
	if !ok {
		t.Fatal("benchmem line not parsed")
	}
	if b.Name != "BenchmarkSurfNetDecoder/d=9" || b.Procs != 8 {
		t.Fatalf("name/procs = %q/%d", b.Name, b.Procs)
	}
	if b.Iterations != 1215 || b.NsPerOp != 987654 || b.BytesPerOp != 120 || b.AllocsPerOp != 3 {
		t.Fatalf("values = %+v", b)
	}
	if b.Package != "surfnet" {
		t.Fatalf("package = %q", b.Package)
	}

	b, ok = parseLine("BenchmarkRunOverhead 	 500	   2000.5 ns/op", "")
	if !ok || b.NsPerOp != 2000.5 || b.Procs != 1 {
		t.Fatalf("plain line = %+v ok=%v", b, ok)
	}
	if b.Extra != nil {
		t.Fatalf("plain line grew extra metrics: %+v", b.Extra)
	}

	// Custom b.ReportMetric units land in Extra; units that are neither
	// per-op nor per-trial are dropped.
	b, ok = parseLine("BenchmarkDecodeWallLatency-8 	 100	 13000 ns/op	 13100 p50-ns/op	 19000 p99-ns/op	 42 widgets", "")
	if !ok {
		t.Fatal("extra-metric line not parsed")
	}
	if b.Extra["p50-ns/op"] != 13100 || b.Extra["p99-ns/op"] != 19000 {
		t.Fatalf("extra metrics = %+v", b.Extra)
	}
	if _, ok := b.Extra["widgets"]; ok {
		t.Fatalf("non-/op unit captured: %+v", b.Extra)
	}

	// The packed 64-lane benchmarks report per-trial throughput.
	b, ok = parseLine("BenchmarkBatchDecode/erasure/d=9/packed 	 500	 250000 ns/op	 3900 ns/trial	 113 B/op	 3 allocs/op", "surfnet")
	if !ok {
		t.Fatal("ns/trial line not parsed")
	}
	if b.Extra["ns/trial"] != 3900 {
		t.Fatalf("ns/trial not captured: %+v", b.Extra)
	}

	for _, line := range []string{
		"PASS",
		"ok  	surfnet	1.2s",
		"goos: linux",
		"--- BENCH: BenchmarkFoo",
		"BenchmarkBroken notanumber ns/op",
	} {
		if _, ok := parseLine(line, ""); ok {
			t.Errorf("non-result line parsed: %q", line)
		}
	}
}

func TestParseNameWithoutProcsSuffix(t *testing.T) {
	name, procs := parseName("BenchmarkMWPMDecoder/d=13")
	if name != "BenchmarkMWPMDecoder/d=13" || procs != 1 {
		t.Fatalf("got %q/%d", name, procs)
	}
	name, procs = parseName("BenchmarkDecodeFrameAllocs-16")
	if name != "BenchmarkDecodeFrameAllocs" || procs != 16 {
		t.Fatalf("got %q/%d", name, procs)
	}
}

// FuzzParseLine feeds arbitrary lines to the bench-output parser: it never
// panics, and every line it accepts is a named benchmark with a positive
// GOMAXPROCS suffix, a positive finite ns/op, and a record the ledger can
// encode. The seed corpus lives in testdata/fuzz/FuzzParseLine.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		b, ok := parseLine(line, "surfnet")
		if !ok {
			return
		}
		if !strings.HasPrefix(b.Name, "Benchmark") || b.Procs < 1 || !(b.NsPerOp > 0) {
			t.Fatalf("parseLine(%q) accepted %+v", line, b)
		}
		if _, err := json.Marshal(b); err != nil {
			t.Fatalf("parseLine(%q) = %+v, which does not encode: %v", line, b, err)
		}
	})
}
