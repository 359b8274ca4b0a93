// Package ledger is the schema of the committed benchmark ledgers
// (BENCH_decoder.json, BENCH_service.json): cmd/benchjson and cmd/surfload
// write them, cmd/benchdiff gates one against another.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
)

// Benchmark is one benchmark record. Extra collects every non-standard
// value/unit pair the benchmark reported via b.ReportMetric — the
// wall-latency percentile families (p50-ns/op, p99-ns/op, p999-ns/op), the
// packed engine's per-trial throughput (ns/trial) and the service driver's
// shed, fidelity and segment-attribution figures land here — keyed by unit.
type Benchmark struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is one ledger document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Load reads a ledger file. An empty extra object loads as nil, the form
// Write omits, so every loaded report writes and loads back equal.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range rep.Benchmarks {
		if len(rep.Benchmarks[i].Extra) == 0 {
			rep.Benchmarks[i].Extra = nil
		}
	}
	return &rep, nil
}

// Write encodes rep as two-space-indented JSON to path, or to stdout when
// path is empty. A failed Close is an error, so a short write can never
// leave a truncated ledger behind a zero exit.
func Write(path string, rep *Report) error {
	if path == "" {
		return encode(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encode(f *os.File, rep *Report) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
