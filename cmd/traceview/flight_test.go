package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"surfnet/internal/service"
)

const sampleTrace = `{
  "id": "t-1",
  "state": "completed",
  "retries": 1,
  "events": [
    {"seq": 0, "kind": "admitted", "tick": 0, "wall_ns": 1000},
    {"seq": 1, "kind": "queue_enter", "tick": 0, "wall_ns": 2000, "detail": {"queue_depth": 1}},
    {"seq": 2, "kind": "queue_exit", "tick": 0, "wall_ns": 5000, "detail": {"queue_depth": 0}},
    {"seq": 3, "kind": "planned", "tick": 0, "wall_ns": 8000, "note": "warm", "detail": {"batch": 1}},
    {"seq": 4, "kind": "terminal", "tick": 1, "wall_ns": 11000, "note": "completed"}
  ],
  "segments": [
    {"class": "queue_wait", "ticks": 0, "wall_ns": 4000, "seconds": 4e-6},
    {"class": "plan", "ticks": 0, "wall_ns": 3000, "seconds": 3e-6},
    {"class": "execute", "ticks": 1, "wall_ns": 3000, "seconds": 3e-6}
  ],
  "total_ticks": 1,
  "total_wall_ns": 10000,
  "total_seconds": 1e-5
}`

// TestParseSniffsTraceAndBundle routes each input kind: a -trace-out
// stream to the span analysis (handed back whole), a bare trace and a bundle
// to the flight renderers, and anything else to an error.
func TestParseSniffsTraceAndBundle(t *testing.T) {
	in, err := parseInput(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if in.spans != nil || len(in.flights) != 1 || in.flights[0].ID != "t-1" {
		t.Fatalf("trace parsed to %+v", in)
	}

	slow := strings.Replace(sampleTrace, `"id": "t-1"`, `"id": "t-2"`, 1)
	slow = strings.Replace(slow, `"total_wall_ns": 10000`, `"total_wall_ns": 20000`, 1)
	bundle := `{"status": {}, "metrics": {}, "faults": {}, "flights": [` + sampleTrace + `, ` + slow + `]}`
	in, err = parseInput(strings.NewReader(bundle))
	if err != nil {
		t.Fatalf("parse bundle: %v", err)
	}
	if in.spans != nil || len(in.flights) != 2 {
		t.Fatalf("bundle parsed to %d flights, want 2", len(in.flights))
	}
	if in.flights[0].ID != "t-2" {
		t.Fatalf("flights not slowest first: %s then %s", in.flights[0].ID, in.flights[1].ID)
	}

	stream := buildTrace(t)
	in, err = parseInput(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("parse span stream: %v", err)
	}
	if in.spans == nil || in.flights != nil {
		t.Fatalf("span stream parsed to %+v", in)
	}
	if got, err := io.ReadAll(in.spans); err != nil || string(got) != stream {
		t.Fatalf("span stream not handed back whole (err %v):\n%s", err, got)
	}

	if _, err := parseInput(strings.NewReader(`{"status": {}}`)); err == nil {
		t.Fatal("document with neither flights nor events must be an error")
	}
	for _, garbage := range []string{`not json`, `[1, 2]`, ``} {
		if _, err := parseInput(strings.NewReader(garbage)); err == nil {
			t.Fatalf("malformed input %q must be an error", garbage)
		}
	}
}

func TestRenderFlightTimelineAndAttribution(t *testing.T) {
	in, err := parseInput(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	renderFlight(&sb, in.flights[0])
	out := sb.String()
	for _, want := range []string{
		"flight t-1", "state=completed", "retries=1",
		"admitted", "queue_enter", "planned", "terminal",
		"warm", "queue_depth=1",
		"attribution", "queue_wait", "plan", "execute", "40.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered flight missing %q:\n%s", want, out)
		}
	}
	// The timeline renders relative to the flight's first event: the
	// terminal event lands at exactly the total wall time.
	if !strings.Contains(out, "0.010ms") {
		t.Fatalf("terminal event not at t+total:\n%s", out)
	}
}

func TestRenderRollupSumsFlights(t *testing.T) {
	in, err := parseInput(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	renderRollup(&sb, []service.FlightTrace{in.flights[0], in.flights[0]})
	out := sb.String()
	if !strings.Contains(out, "2 flights") || !strings.Contains(out, "0.020ms") {
		t.Fatalf("rollup wrong:\n%s", out)
	}
	if !strings.Contains(out, "queue_wait") || !strings.Contains(out, "0.008ms") {
		t.Fatalf("rollup missing summed queue_wait:\n%s", out)
	}
}

// TestRunRendersFlights drives the CLI entry on flight input: a bundle
// renders every flight plus the rollup, -json re-emits the parsed flights.
func TestRunRendersFlights(t *testing.T) {
	bundle := `{"flights": [` + sampleTrace + `, ` + sampleTrace + `]}`
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(bundle), &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	if n := strings.Count(out.String(), "flight t-1"); n != 2 {
		t.Fatalf("bundle rendered %d flights, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "attribution rollup over 2 flights") {
		t.Fatalf("bundle rendering missing rollup:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-json"}, strings.NewReader(sampleTrace), &out, &errb); code != 0 {
		t.Fatalf("run -json = %d, stderr: %s", code, errb.String())
	}
	var flights []service.FlightTrace
	if err := json.Unmarshal(out.Bytes(), &flights); err != nil {
		t.Fatalf("JSON output: %v\n%s", err, out.String())
	}
	if len(flights) != 1 || flights[0].TotalWallNs != 10000 || len(flights[0].Segments) != 3 {
		t.Fatalf("JSON flights %+v", flights)
	}
}
