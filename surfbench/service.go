package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surfnet/internal/core"
	"surfnet/internal/decoder"
	"surfnet/internal/network"
	"surfnet/internal/obs"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/service"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// loadSpec is one service workload's offered load.
type loadSpec struct {
	// rate is the mean open-loop arrival rate per second.
	rate float64
	// saturated marks the overload workload. There most arrivals are shed,
	// so the latency percentiles are taken over admitted transfers.
	// Otherwise every arrival counts, shed or errored ones as +Inf.
	saturated bool
}

var (
	lightLoad = loadSpec{rate: 20}
	overload  = loadSpec{rate: 150, saturated: true}
)

// The daemon is wired as cmd/surfnetd wires it, with the admission settings
// of scripts/service_bench.sh.
const (
	queueLimit  = 64
	epochMax    = 8
	poolWorkers = 2
	netSeed     = 1
	// maxConns bounds the load generator's keep-alive connections.
	maxConns = 2
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 21
	// leadIn separates set-up from the first due arrival.
	leadIn = 20 * time.Millisecond
	// lateBoundMs flags a run whose generator fell behind its schedule by
	// more than this at the tail: such a run measured the generator, not
	// the daemon.
	lateBoundMs = 25
	submitRoute = "POST /v1/transfers"
	// overheadBudget bounds the lockstep untraced and traced replay that
	// trace.overhead_pct compares; replaying an overloaded run in full
	// costs ~30 s per replay.
	overheadBudget = 10 * time.Second
)

// arrival is one planned transfer submission.
type arrival struct {
	at  time.Duration
	req service.TransferRequest
}

// arrivalPlan draws the open-loop arrival plan from seed: n = rate×seconds
// arrivals placed uniformly at random over [0, seconds) — a Poisson process
// conditioned on its count, so the offered load is the same in every run —
// with surfload's request mix: a uniform pair of distinct users, 1–2
// messages, and one of two tenants.
func arrivalPlan(seed uint64, rate, seconds float64, users []int) []arrival {
	n := int(math.Round(rate * seconds))
	src := rng.New(seed)
	times := src.Split("arrivals")
	at := make([]float64, n)
	for i := range at {
		at[i] = times.Float64() * seconds
	}
	sort.Float64s(at)
	mix := src.Split("mix")
	plan := make([]arrival, n)
	for i := range plan {
		ai := mix.IntN(len(users))
		bi := mix.IntN(len(users) - 1)
		if bi >= ai {
			bi++
		}
		plan[i] = arrival{
			at: time.Duration(at[i] * float64(time.Second)),
			req: service.TransferRequest{
				Tenant:   fmt.Sprintf("tenant-%d", mix.IntN(2)),
				Src:      users[ai],
				Dst:      users[bi],
				Messages: 1 + mix.IntN(2),
			},
		}
	}
	return plan
}

// flightClock is the daemon's flight clock. Its first reading is the flight
// recorder's origin, so flight stamps can be turned back into wall times.
type flightClock struct {
	once   sync.Once
	origin time.Time
}

func (c *flightClock) now() time.Time {
	t := time.Now()
	c.once.Do(func() { c.origin = t })
	return t
}

// at converts a flight stamp (ns since the recorder started) to wall time.
func (c *flightClock) at(ns int64) time.Time {
	c.once.Do(func() {})
	return c.origin.Add(time.Duration(ns))
}

// daemon is one in-process surfnetd.
type daemon struct {
	net   *network.Network
	svc   *service.Service
	srv   *obs.Server
	base  string
	clock *flightClock
}

// generate builds the daemon's network: abundant facilities, good
// connections, net-seed 1.
func generate() (*network.Network, error) {
	return topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), rng.New(netSeed))
}

// buildDaemon builds and starts serving one daemon. wrap, when non-nil,
// wraps each route's handler as it is mounted.
func buildDaemon(seed uint64, wrap func(string, http.Handler) http.Handler) (*daemon, error) {
	net, err := generate()
	if err != nil {
		return nil, fmt.Errorf("generating topology: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Decoder = decoder.SurfNet{}
	eng, err := core.NewEngine(net, cfg)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	pl := routing.NewPlanner(routing.DefaultParams(routing.SurfNet))
	reg := telemetry.NewRegistry()
	srv := obs.NewServer(reg, nil)
	clock := &flightClock{}
	svc, err := service.New(eng, pl, service.Config{
		QueueLimit:  queueLimit,
		EpochMax:    epochMax,
		Workers:     poolWorkers,
		Seed:        seed,
		Metrics:     reg,
		DrainHook:   func() { srv.SetReady(false) },
		FlightClock: clock.now,
	})
	if err != nil {
		return nil, fmt.Errorf("building service: %w", err)
	}
	svc.RegisterRoutes(func(pattern string, h http.Handler) {
		if wrap != nil {
			h = wrap(pattern, h)
		}
		srv.Handle(pattern, h)
	})
	srv.SetServiceStatus(func() any { return svc.Status() })
	srv.SetReady(true)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	return &daemon{net: net, svc: svc, srv: srv, base: "http://" + addr.String(), clock: clock}, nil
}

// close stops the daemon's listener.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // the run is over; a slow close changes no result
}

// sendResult is one arrival as the load generator saw it.
type sendResult struct {
	due, sent, answered time.Time
	// code is the HTTP status, 0 on a transport error.
	code int
	// id is the transfer id of an admitted (202) arrival.
	id string
}

// drive fires the plan open-loop at the daemon over at most maxConns
// keep-alive connections and returns each arrival's result. A dispatcher
// releases each arrival at its due time to maxConns senders; a send that
// starts late is charged from its due time.
func drive(base string, plan []arrival) ([]sendResult, error) {
	bodies := make([][]byte, len(plan))
	for i, a := range plan {
		b, err := json.Marshal(a.req)
		if err != nil {
			return nil, fmt.Errorf("encoding transfer request: %w", err)
		}
		bodies[i] = b
	}
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	results := make([]sendResult, len(plan))
	// Sized to every send, so the dispatcher never blocks behind a slow
	// POST and later arrivals keep their due times.
	jobs := make(chan int, len(plan))
	start := time.Now().Add(leadIn)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = post(client, base, bodies[i], start.Add(plan[i].at))
			}
		}()
	}
	for i, a := range plan {
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, nil
}

// post submits one transfer.
func post(client *http.Client, base string, body []byte, due time.Time) sendResult {
	r := sendResult{due: due, sent: time.Now()}
	resp, err := client.Post(base+"/v1/transfers", "application/json", bytes.NewReader(body))
	if err != nil {
		r.answered = time.Now()
		return r
	}
	r.code = resp.StatusCode
	if r.code == http.StatusAccepted {
		var st service.TransferStatus
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			r.id = st.ID
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	r.answered = time.Now()
	return r
}

// submitTimer wraps the transfer-submission handler with an http.submit
// span per request.
func submitTimer(rec *recorder) func(string, http.Handler) http.Handler {
	var seq atomic.Int64
	return func(pattern string, h http.Handler) http.Handler {
		if pattern != submitRoute {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := rec.start("http.submit", noSpan, seq.Add(1))
			h.ServeHTTP(w, r)
			rec.end(id)
		})
	}
}

// Arrival fates after the drain.
const (
	// fateDone: admitted, and stamped terminal by the daemon.
	fateDone = iota
	// fateLost: admitted but never terminal — a broken zero-drop contract.
	fateLost
	// fateShed: refused with 429 by admission control.
	fateShed
	// fateError: a transport error, a 5xx, or a 400 on a valid body.
	fateError
)

// fate is how one arrival ended; ms is its due-to-terminal latency when
// kind is fateDone.
type fate struct {
	kind int
	ms   float64
}

// latencySamples returns the latency samples of a run in ms. Admitted
// transfers count with their latency, or +Inf if they never finished; with
// allArrivals, shed and errored arrivals count as +Inf too, so they miss
// every latency limit instead of vanishing from the percentiles.
func latencySamples(fates []fate, allArrivals bool) []float64 {
	var out []float64
	for _, f := range fates {
		switch {
		case f.kind == fateDone:
			out = append(out, f.ms)
		case f.kind == fateLost || allArrivals:
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// transferRecord is one admitted transfer after the drain.
type transferRecord struct {
	status service.TransferStatus
	trace  service.FlightTrace
}

// seqOf is the admission sequence number in a transfer id ("t-17" → 17).
// An id in another form counts as 0; the replay's per-transfer check then
// reports the misordered epoch.
func seqOf(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "t-"))
	return n
}

// segmentNs is the wall time a flight trace attributes to class.
func segmentNs(tr service.FlightTrace, class string) int64 {
	for _, s := range tr.Segments {
		if s.Class == class {
			return s.WallNs
		}
	}
	return 0
}

// runService runs one service workload: set up the daemon, drive the plan,
// drain, check the zero-drop contract, and compute the metrics. The traced
// run also times the submission handler and replays the epochs.
func runService(ctx context.Context, load loadSpec, o runOpts) (*outcome, error) {
	var rec *recorder
	var wrap func(string, http.Handler) http.Handler
	if o.trace {
		rec = newRecorder()
		wrap = submitTimer(rec)
	}
	d, setup, err := timedSetup(setupReps, func() (*daemon, error) { return buildDaemon(o.seed, wrap) }, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	users := d.net.NodesByRole(network.User)
	if len(users) < 2 {
		return nil, fmt.Errorf("network has %d user nodes, need 2", len(users))
	}
	plan := arrivalPlan(o.seed, load.rate, o.seconds, users)

	runCtx, stop := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	go func() { runErr <- d.svc.Run(runCtx) }()
	sends, err := drive(d.base, plan)
	stop() // cancelling Run drains: every admitted transfer reaches a terminal state
	if rerr := <-runErr; rerr != nil && err == nil {
		err = fmt.Errorf("daemon run: %w", rerr)
	}
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}, attempted: int64(len(plan))}
	st := d.svc.Status()
	var admitted, shed, errored int64
	var accepted, success int64
	var late []float64
	fates := make([]fate, len(sends))
	var records []transferRecord
	for i, s := range sends {
		late = append(late, float64(s.sent.Sub(s.due))/float64(time.Millisecond))
		switch {
		case s.code == http.StatusAccepted && s.id != "":
			admitted++
			ts, err := d.svc.Get(s.id)
			terminal := err == nil && (ts.State == service.StateCompleted || ts.State == service.StateFailed)
			var tr service.FlightTrace
			if terminal {
				tr, err = d.svc.Trace(s.id)
				terminal = err == nil && len(tr.Events) > 0 && tr.Events[len(tr.Events)-1].Kind == "terminal"
			}
			if !terminal {
				errored++
				fates[i] = fate{kind: fateLost}
				out.check(false, "admitted transfer %s (arrival %d) never reached a terminal state", s.id, i)
				continue
			}
			admittedAt := d.clock.at(tr.Events[0].WallNs)
			out.check(!admittedAt.Before(s.sent) && !admittedAt.After(s.answered),
				"transfer %s admission stamp lies outside its POST (flight clock origin is off)", s.id)
			done := d.clock.at(tr.Events[len(tr.Events)-1].WallNs)
			fates[i] = fate{kind: fateDone, ms: float64(done.Sub(s.due)) / float64(time.Millisecond)}
			accepted += int64(ts.AcceptedCodes)
			success += int64(ts.SuccessCodes)
			records = append(records, transferRecord{status: ts, trace: tr})
		case s.code == http.StatusTooManyRequests:
			shed++
			fates[i] = fate{kind: fateShed}
		default:
			errored++ // transport error, 5xx, or a 400 on a valid body
			fates[i] = fate{kind: fateError}
		}
	}
	out.failed = errored
	out.check(st.Admitted == admitted, "daemon admitted %d, generator saw %d accepted", st.Admitted, admitted)
	out.check(st.Admitted == st.Completed+st.Failed, "zero-drop contract broken: admitted %d != completed %d + failed %d",
		st.Admitted, st.Completed, st.Failed)
	out.check(st.Shed == shed, "daemon shed %d, generator saw %d 429s", st.Shed, shed)
	lateSorted := sortedCopy(late)
	lateTail, lateQ, err := tail(lateSorted)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	fmt.Printf("generator: %d arrivals over %gs, lateness p%g %.3f ms (bound %d ms)\n",
		len(plan), o.seconds, 100*lateQ, lateTail, lateBoundMs)
	out.check(lateTail <= lateBoundMs, "generator fell behind its schedule: p%g lateness %.1f ms > %d ms; the run measured the generator",
		100*lateQ, lateTail, lateBoundMs)
	fmt.Printf("daemon: admitted %d completed %d failed %d shed %d errored %d epochs %d\n",
		st.Admitted, st.Completed, st.Failed, st.Shed, errored, st.Epochs)

	if !o.trace {
		lat := sortedCopy(latencySamples(fates, !load.saturated))
		p50, err := percentile(lat, 0.50)
		if err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		printTail("latency", lat, p50)
		out.metrics["setup_s"] = setup
		out.metrics["goodput_per_s"] = float64(st.Completed) / o.seconds
		out.metrics["latency_p50_ms"] = p50
		out.metrics["ok_share"] = 1 - float64(errored)/float64(len(plan))
		out.metrics["fidelity"] = ratio(float64(success), float64(accepted))
		return out, nil
	}

	layer, err := serviceLayers(ctx, o, rec, d, records, sends, st)
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, layer.problems...)
	for k, v := range layer.metrics {
		out.metrics[k] = v
	}
	out.metrics["gen.late_ms.tail"] = lateTail
	return out, nil
}

// replayEpoch is one daemon epoch: its admitted transfers in admission
// order.
type replayEpoch struct {
	epoch int64
	recs  []transferRecord
	reqs  []network.Request
}

// epochsOf groups the admitted transfers by the epoch that executed them,
// in epoch order and admission order within an epoch — the order the daemon
// planned them in.
func epochsOf(records []transferRecord) []replayEpoch {
	byEpoch := map[int64][]transferRecord{}
	for _, r := range records {
		byEpoch[r.status.Epoch] = append(byEpoch[r.status.Epoch], r)
	}
	eps := make([]replayEpoch, 0, len(byEpoch))
	for e, recs := range byEpoch {
		sort.Slice(recs, func(i, j int) bool { return seqOf(recs[i].status.ID) < seqOf(recs[j].status.ID) })
		reqs := make([]network.Request, len(recs))
		for i, r := range recs {
			reqs[i] = network.Request{Src: r.status.Src, Dst: r.status.Dst, Messages: r.status.Messages}
		}
		eps = append(eps, replayEpoch{epoch: e, recs: recs, reqs: reqs})
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].epoch < eps[j].epoch })
	return eps
}

// replayer re-plans and re-executes the daemon's epochs on a fresh planner
// and engine, without entering the daemon. With a recorder it records plan,
// execute and decode spans.
type replayer struct {
	net    *network.Network
	eng    *core.Engine
	pl     *routing.Planner
	reg    *telemetry.Registry
	root   *rng.Source
	rec    *recorder
	traced *tracedDecoder
}

func newReplayer(seed uint64, rec *recorder) (*replayer, error) {
	net, err := generate()
	if err != nil {
		return nil, fmt.Errorf("replay: generating topology: %w", err)
	}
	r := &replayer{net: net, reg: telemetry.NewRegistry(), root: rng.New(seed), rec: rec}
	cfg := core.DefaultConfig()
	cfg.Decoder = decoder.SurfNet{}
	if rec != nil {
		r.traced = newTracedDecoder(decoder.SurfNet{}, rec)
		cfg.Decoder = r.traced
	}
	if r.eng, err = core.NewEngine(net, cfg); err != nil {
		return nil, fmt.Errorf("replay: building engine: %w", err)
	}
	params := routing.DefaultParams(routing.SurfNet)
	params.Metrics = r.reg
	r.pl = routing.NewPlanner(params)
	return r, nil
}

// step replays one epoch — epoch e executes on SplitN("epoch", e) of the
// service seed, as in the daemon — and checks that every transfer gets the
// accepted, delivered and successful code counts the daemon reported. It
// returns the epoch's plan and execute span ids (noSpan when untraced) and
// its wall time.
func (r *replayer) step(ctx context.Context, ep replayEpoch) (planSpan, exSpan int, took time.Duration, problems []string, err error) {
	start := time.Now()
	planSpan = r.rec.start("plan", noSpan, ep.epoch)
	sched, err := r.pl.Plan(r.net, ep.reqs)
	r.rec.end(planSpan)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("replay: planning epoch %d: %w", ep.epoch, err)
	}
	exSpan = r.rec.start("execute", noSpan, ep.epoch)
	if r.traced != nil {
		r.traced.under(exSpan, ep.epoch)
	}
	run, err := r.eng.ExecuteParallel(ctx, sched, r.root.SplitN("epoch", int(ep.epoch)), poolWorkers)
	r.rec.end(exSpan)
	took = time.Since(start)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("replay: executing epoch %d: %w", ep.epoch, err)
	}
	delivered := make([]int, len(ep.recs))
	succeeded := make([]int, len(ep.recs))
	for _, oc := range run.Outcomes {
		if oc.Delivered {
			delivered[oc.Request]++
		}
		if oc.Success {
			succeeded[oc.Request]++
		}
	}
	for i, t := range ep.recs {
		got := 0
		if len(sched.Requests) == len(ep.recs) {
			got = sched.Requests[i].Accepted()
		}
		if got != t.status.AcceptedCodes || delivered[i] != t.status.DeliveredCodes || succeeded[i] != t.status.SuccessCodes {
			problems = append(problems, fmt.Sprintf(
				"replay of %s (epoch %d): accepted/delivered/success %d/%d/%d, daemon reported %d/%d/%d",
				t.status.ID, ep.epoch, got, delivered[i], succeeded[i],
				t.status.AcceptedCodes, t.status.DeliveredCodes, t.status.SuccessCodes))
		}
	}
	return planSpan, exSpan, took, problems, nil
}

// serviceLayers computes the per-layer metrics of a traced service run:
// HTTP admission from the submit spans, queue and epoch figures from the
// daemon, and planning, execution and decoding from a traced replay of the
// recorded epochs. An untraced replay runs in lockstep for the first
// overheadBudget, taking turns to go first, so both see the same machine
// and trace.overhead_pct compares like with like.
func serviceLayers(ctx context.Context, o runOpts, rec *recorder, d *daemon, records []transferRecord, sends []sendResult, st service.Status) (*outcome, error) {
	out := &outcome{metrics: zeroLayers()}
	eps := epochsOf(records)
	plain, err := newReplayer(o.seed, nil)
	if err != nil {
		return nil, err
	}
	traced, err := newReplayer(o.seed, rec)
	if err != nil {
		return nil, err
	}
	planSpans := make([]int, len(eps))
	exSpans := make([]int, len(eps))
	var plainTook, tracedTook, lockstep time.Duration
	for i, ep := range eps {
		both := lockstep < overheadBudget
		if both && i%2 == 1 {
			_, _, took, problems, err := plain.step(ctx, ep)
			if err != nil {
				return nil, err
			}
			plainTook += took
			out.problems = append(out.problems, problems...)
		}
		ps, xs, took, problems, err := traced.step(ctx, ep)
		if err != nil {
			return nil, err
		}
		planSpans[i], exSpans[i] = ps, xs
		out.problems = append(out.problems, problems...)
		if !both {
			continue
		}
		tracedTook += took
		if i%2 == 0 {
			_, _, took, problems, err := plain.step(ctx, ep)
			if err != nil {
				return nil, err
			}
			plainTook += took
			out.problems = append(out.problems, problems...)
		}
		lockstep = plainTook + tracedTook
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	var posts, sheds float64
	for _, s := range sends {
		posts++
		if s.code == http.StatusTooManyRequests {
			sheds++
		}
	}
	m := out.metrics
	m["http.submit_us.p50"], m["http.submit_us.tail"] = dist(selfByName(spans, self, "http.submit", time.Microsecond))
	m["http.shed_share"] = ratio(sheds, posts)
	if st.Queue != nil {
		m["queue.wait_ms.p50"] = st.Queue.WaitP50Seconds * 1e3
		m["queue.wait_ms.p99"] = st.Queue.WaitP99Seconds * 1e3
	}
	m["epoch.count"] = float64(len(eps))
	m["epoch.k.mean"] = ratio(float64(len(records)), float64(len(eps)))
	m["plan.self_ms.p50"], m["plan.self_ms.tail"] = dist(selfByName(spans, self, "plan", time.Millisecond))
	m["execute.self_ms.p50"], m["execute.self_ms.tail"] = dist(selfByName(spans, self, "execute", time.Millisecond))
	decodeLayers(m, spans, self)
	lpLayers(m, traced.reg)
	var rows, cols []float64
	for _, ep := range eps {
		form, err := routing.BuildLP(d.net, ep.reqs, routing.DefaultParams(routing.SurfNet))
		if err != nil {
			return nil, fmt.Errorf("building LP of epoch %d: %w", ep.epoch, err)
		}
		rows = append(rows, float64(form.Problem.NumConstraints()))
		cols = append(cols, float64(form.Problem.NumVars()))
	}
	m["lp.rows.mean"] = mean(rows)
	m["lp.cols.mean"] = mean(cols)
	hits, misses := traced.pl.WarmStats()
	m["lp.warm_hit_share"] = ratio(float64(hits), float64(hits+misses))
	m["trace.overhead_pct"] = 100 * (tracedTook.Seconds() - plainTook.Seconds()) / plainTook.Seconds()

	// Cross-check against the daemon's own flight attribution: the replayed
	// plan and execute spans of each transfer's epoch over the plan and
	// execute segments the flight recorder charged to that transfer.
	var replayPlan, replayExec, flightPlan, flightExec float64
	for i, ep := range eps {
		p := float64(spans[planSpans[i]].End - spans[planSpans[i]].Start)
		x := float64(spans[exSpans[i]].End - spans[exSpans[i]].Start)
		for _, r := range ep.recs {
			replayPlan += p
			replayExec += x
			flightPlan += float64(segmentNs(r.trace, service.SegPlan))
			flightExec += float64(segmentNs(r.trace, service.SegExecute))
		}
	}
	m["xcheck.plan_ratio"] = ratio(replayPlan, flightPlan)
	m["xcheck.execute_ratio"] = ratio(replayExec, flightExec)

	if err := writeSpans(o.spanDir, spanFile(o), spans); err != nil {
		return nil, err
	}
	return out, nil
}

// zeroLayers starts a per-layer metric set with every layer at 0, the value
// of a layer the workload does not reach.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// dist returns the p50 and the tail of samples; a percentile the sample
// count cannot support is 0.
func dist(samples []float64) (p50, tl float64) {
	s := sortedCopy(samples)
	p50, _ = percentile(s, 0.5)
	tl, _, _ = tail(s)
	return p50, tl
}

// decodeLayers sets the decoder's self-time percentiles per decoder name
// and the decode call count.
func decodeLayers(m map[string]float64, spans []span, self []int64) {
	calls := 0
	for _, name := range []string{decoder.SurfNet{}.Name(), decoder.UnionFind{}.Name()} {
		xs := selfByName(spans, self, "decode."+name, time.Microsecond)
		calls += len(xs)
		m["decode.self_us.p50."+name], m["decode.self_us.tail."+name] = dist(xs)
	}
	m["decode.calls"] = float64(calls)
}

// lpLayers sets the simplex effort metrics from the routing counters.
func lpLayers(m map[string]float64, reg *telemetry.Registry) {
	solves := float64(reg.Counter("routing.lp_solves").Value())
	pivots := float64(reg.Counter("routing.lp_pivots").Value())
	m["lp.pivots.mean"] = ratio(pivots, solves)
	m["lp.degenerate_share"] = ratio(float64(reg.Counter("routing.lp_degenerate_pivots").Value()), pivots)
}
