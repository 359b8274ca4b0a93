// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON trajectory file, so benchmark results can be diffed
// across commits and plotted over time. Input lines pass through to stderr,
// keeping the interactive view intact.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH.json
//
// Each benchmark line becomes one record with iterations, ns/op, and (with
// -benchmem) B/op and allocs/op; goos/goarch/pkg/cpu metadata lines are
// captured into the header.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"

	"surfnet/internal/ledger"
)

// parseName splits "BenchmarkFoo/sub-8" into the bare name and the
// trailing GOMAXPROCS suffix (1 when absent).
func parseName(field string) (string, int) {
	if i := strings.LastIndex(field, "-"); i > 0 {
		if procs, err := strconv.Atoi(field[i+1:]); err == nil && procs > 0 {
			return field[:i], procs
		}
	}
	return field, 1
}

// parseLine parses one benchmark result line; ok is false for any other
// line (metadata, PASS, test log output).
func parseLine(line, pkg string) (ledger.Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return ledger.Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return ledger.Benchmark{}, false
	}
	b := ledger.Benchmark{Iterations: iters, Package: pkg}
	b.Name, b.Procs = parseName(fields[0])
	// The remaining fields come in value/unit pairs: 1234 ns/op 56 B/op ...
	for i := 2; i+1 < len(fields); i += 2 {
		// Non-finite values (NaN, ±Inf) have no JSON encoding; skip them
		// like any other unparsable value.
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			// throughput is derivable from ns/op; skip to keep records lean
		default:
			// custom b.ReportMetric units: per-op extras (e.g. p99-ns/op)
			// and per-trial extras from the packed 64-lane benchmarks
			// (ns/trial), where one op covers a whole 64-trial batch.
			if strings.HasSuffix(unit, "/op") || strings.HasSuffix(unit, "/trial") {
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[unit] = v
			}
		}
	}
	if b.NsPerOp <= 0 {
		return ledger.Benchmark{}, false
	}
	return b, true
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("out", "", "output JSON file (default stdout)")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	var report ledger.Report
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // tee: keep the interactive view
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if b, ok := parseLine(line, pkg); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		slog.Error("benchjson: reading stdin", "err", err)
		return 1
	}
	if len(report.Benchmarks) == 0 {
		slog.Error("benchjson: no benchmark lines on stdin")
		return 1
	}

	if err := ledger.Write(*out, &report); err != nil {
		slog.Error("benchjson: writing output", "err", err)
		return 1
	}
	slog.Info("benchjson: wrote report", "benchmarks", len(report.Benchmarks), "out", *out)
	return 0
}
