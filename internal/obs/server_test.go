package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"surfnet/internal/telemetry"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("sim.trials").Add(7)
	tracker := NewTracker()
	cell := tracker.StartCell("fig6a/surfnet/greedy", 10)
	cell.TrialDone(4)

	s := NewServer(reg, tracker)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d, want 503", code)
	}
	s.SetReady(true)
	if code, body := get(t, ts, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz after SetReady = %d %q", code, body)
	}

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "surfnet_sim_trials_total 7\n") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, body = get(t, ts, "/status")
	if code != 200 {
		t.Fatalf("/status = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if !st.Ready || st.TrialsDone != 4 || st.TrialsTotal != 10 {
		t.Fatalf("/status = %+v, want ready with 4/10 trials", st)
	}
	if st.Counters["sim.trials"] != 7 {
		t.Fatalf("/status counters = %v, want sim.trials=7", st.Counters)
	}

	if code, body := get(t, ts, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d (len %d)", code, len(body))
	}
	if code, _ := get(t, ts, "/debug/pprof/heap"); code != 200 {
		t.Fatalf("/debug/pprof/heap = %d", code)
	}
}

func TestServerNilRegistryAndTracker(t *testing.T) {
	s := NewServer(nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/metrics"); code != 200 || body != "" {
		t.Fatalf("/metrics on nil registry = %d %q, want empty 200", code, body)
	}
	code, body := get(t, ts, "/status")
	if code != 200 {
		t.Fatalf("/status = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.CellsStarted != 0 || st.Ready {
		t.Fatalf("/status on nil tracker = %+v, want zero/unready", st)
	}
}

func TestServerListenAndShutdown(t *testing.T) {
	s := NewServer(telemetry.NewRegistry(), NewTracker())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	resp, err := http.Get(fmt.Sprintf("http://%s/readyz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz over real listener = %d", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

func TestShutdownWithoutListen(t *testing.T) {
	s := NewServer(nil, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScrapeWhileMutating hammers /metrics and /status while
// goroutines mutate every instrument kind and the progress tracker — the
// contract the race detector checks when a live sweep is scraped mid-run.
func TestConcurrentScrapeWhileMutating(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracker := NewTracker()
	s := NewServer(reg, tracker)
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cell := tracker.StartCell(fmt.Sprintf("cell-%d", w), iters)
			c := reg.Counter("sim.trials")
			g := reg.Gauge("net.load")
			h := reg.HDR("decode.seconds", telemetry.WallLatencySpec)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / iters)
				cell.TrialDone(1)
			}
			cell.Finish()
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for _, path := range []string{"/metrics", "/status", "/readyz"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("%s = %d mid-run", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	_, body := get(t, ts, "/metrics")
	if !strings.Contains(body, fmt.Sprintf("surfnet_sim_trials_total %d\n", 4*iters)) {
		t.Fatalf("final scrape missing settled counter:\n%s", body)
	}
}
