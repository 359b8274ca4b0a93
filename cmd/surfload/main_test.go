package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"surfnet/internal/core"
	"surfnet/internal/decoder"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/service"
	"surfnet/internal/topology"
)

// daemon mounts a real service's API on a test server, so the driver talks
// to exactly the wire types the daemon writes. With run set, the epoch loop
// executes admissions as they arrive.
func daemon(t *testing.T, cfg service.Config, run bool) (*service.Service, *httptest.Server) {
	t.Helper()
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), rng.New(9090))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig()
	ecfg.Decoder = decoder.SurfNet{}
	eng, err := core.NewEngine(net, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultTick = -1
	svc, err := service.New(eng, routing.NewPlanner(routing.DefaultParams(routing.SurfNet)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.RegisterRoutes(mux.Handle)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	if run {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- svc.Run(ctx) }()
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Error(err)
			}
		})
	}
	return svc, srv
}

func TestUserNodes(t *testing.T) {
	svc, srv := daemon(t, service.Config{}, false)
	users, err := userNodes(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	net := svc.Engine().Network()
	want := 0
	for i := 0; i < net.NumNodes(); i++ {
		if net.Node(i).Role == network.User {
			want++
		}
	}
	if len(users) != want || want < 2 {
		t.Fatalf("userNodes = %v, want the network's %d user nodes", users, want)
	}
	for _, id := range users {
		if r := net.Node(id).Role; r != network.User {
			t.Fatalf("node %d has role %v, want user", id, r)
		}
	}

	for _, body := range []string{
		`{"nodes": [{"id": 3, "role": "user"}, {"id": 4, "role": "repeater"}]}`,
		`not json`,
	} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(body))
		}))
		if users, err := userNodes(bad.Client(), bad.URL); err == nil {
			t.Errorf("userNodes on %q = %v, want an error", body, users)
		}
		bad.Close()
	}
	if _, err := userNodes(srv.Client(), srv.URL+"/nope"); err == nil {
		t.Fatal("userNodes on a 404 succeeded")
	}
}

func TestDriveCompletesAndSamplesTraces(t *testing.T) {
	svc, srv := daemon(t, service.Config{}, true)
	client := srv.Client()
	users, err := userNodes(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var results []result
	for i := 0; i < 3; i++ {
		req := service.TransferRequest{Tenant: "t", Src: users[i], Dst: users[i+1], Messages: 1}
		r := drive(client, srv.URL, req, time.Millisecond, 30*time.Second, retryPolicy{}, rng.New(1))
		if r.state != service.StateCompleted && r.state != service.StateFailed {
			t.Fatalf("drive = %+v, want a terminal state", r)
		}
		st, err := svc.Get(r.id)
		if err != nil {
			t.Fatal(err)
		}
		if r.accepted != st.AcceptedCodes || r.success != st.SuccessCodes ||
			r.failClass != st.FailureClass || r.wallNs != st.WallLatencySeconds*1e9 {
			t.Fatalf("drive = %+v, daemon status %+v", r, st)
		}
		if r.wallNs <= 0 || r.clientNs <= 0 {
			t.Fatalf("drive = %+v, want positive latencies", r)
		}
		// Every transfer counts as completed for sampling; the trace API
		// serves failed flights too.
		r.state = "completed"
		results = append(results, r)
	}
	// A completion the daemon never admitted is skipped, not fetched.
	results = append(results, result{id: "t-404", state: "completed", wallNs: 1e18})

	segNs, fetched := sampleSlowTraces(client, srv.URL, results, 3)
	if fetched != 2 {
		t.Fatalf("fetched %d traces, want the 2 real ones among the 3 slowest", fetched)
	}
	want := map[string]float64{}
	byWall := append([]result(nil), results[:3]...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wallNs > byWall[j].wallNs })
	for _, r := range byWall[:2] {
		tr, err := svc.Trace(r.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range tr.Segments {
			want[seg.Class] += float64(seg.WallNs)
		}
	}
	if len(segNs) == 0 || len(segNs) != len(want) {
		t.Fatalf("segments = %v, want %v", segNs, want)
	}
	for class, ns := range want {
		if segNs[class] != ns {
			t.Fatalf("segments = %v, want %v", segNs, want)
		}
	}
}

func TestDriveShedAndRejected(t *testing.T) {
	svc, srv := daemon(t, service.Config{QueueLimit: 1}, false)
	client := srv.Client()
	users, err := userNodes(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	req := service.TransferRequest{Tenant: "t", Src: users[0], Dst: users[1], Messages: 1}
	if _, err := svc.Submit(req); err != nil {
		t.Fatal(err)
	}
	// The queue is full and no epoch runs: every attempt is shed.
	if r := drive(client, srv.URL, req, time.Millisecond, time.Second, retryPolicy{}, rng.New(1)); r.state != "shed" || r.retries != 0 {
		t.Fatalf("drive without retry = %+v, want shed after 0 retries", r)
	}
	rp := retryPolicy{enabled: true, max: 2, cap: time.Millisecond}
	if r := drive(client, srv.URL, req, time.Millisecond, time.Second, rp, rng.New(1)); r.state != "shed" || r.retries != 2 {
		t.Fatalf("drive with retry = %+v, want shed after 2 retries", r)
	}
	bad := service.TransferRequest{Src: users[0], Dst: users[0], Messages: 1}
	if r := drive(client, srv.URL, bad, time.Millisecond, time.Second, retryPolicy{}, rng.New(1)); r.state != "error" {
		t.Fatalf("drive of an invalid request = %+v, want error", r)
	}
}
