package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestArrivalPlanIsDeterministic(t *testing.T) {
	users := []int{3, 5, 8, 13, 21}
	a := arrivalPlan(7, 20, 10, users)
	b := arrivalPlan(7, 20, 10, users)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different arrival plans")
	}
	if len(a) != 200 {
		t.Fatalf("plan has %d arrivals, want rate×seconds = 200", len(a))
	}
	for i, x := range a {
		if x.at < 0 || x.at >= 10*time.Second || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v: times must be sorted within [0, 10s)", i, x.at)
		}
		if x.req.Src == x.req.Dst || x.req.Messages < 1 || x.req.Messages > 2 {
			t.Fatalf("arrival %d has an invalid request %+v", i, x.req)
		}
	}
	if c := arrivalPlan(8, 20, 10, users); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same arrival plan")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(xs[:9], 0.5); err == nil {
		t.Fatal("p50 of 9 samples has 4 beyond it and must be refused")
	}
	v, q, err := tail(xs)
	if err != nil || q != 0.90 || v != 90 {
		t.Fatalf("tail of 100 samples = %v at p%v (%v); want p90 = 90", v, 100*q, err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "execute", Start: 0, End: 100, Parent: noSpan},
		{Name: "decode", Start: 10, End: 30, Parent: 0},
		{Name: "decode", Start: 20, End: 50, Parent: 0}, // overlaps the first child
		{Name: "decode", Start: 60, End: 70, Parent: 0},
		{Name: "decode", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "other", Start: 0, End: 100, Parent: noSpan},
	}
	self := selfTimes(spans)
	// Children cover [10,50] ∪ [60,70] ∪ [90,100] of the parent: 60 ns.
	if self[0] != 40 {
		t.Fatalf("self time of the parent = %d, want 100 - 60 = 40", self[0])
	}
	if self[2] != 30 || self[5] != 100 {
		t.Fatalf("leaf self times = %d, %d; want their durations 30 and 100", self[2], self[5])
	}
	if got := selfByName(spans, self, "decode", time.Nanosecond); len(got) != 4 {
		t.Fatalf("selfByName found %d decode spans, want 4", len(got))
	}
}

func TestRecorderIsSafeAcrossGoroutines(t *testing.T) {
	rec := newRecorder()
	parent := rec.start("execute", noSpan, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec.end(rec.start("decode", parent, int64(w)))
			}
		}(w)
	}
	wg.Wait()
	rec.end(parent)
	spans := rec.snapshot()
	if len(spans) != 1+4*500 {
		t.Fatalf("recorded %d spans, want %d", len(spans), 1+4*500)
	}
	for i, d := range selfTimes(spans) {
		if d < 0 || spans[i].End < spans[i].Start {
			t.Fatalf("span %d (%s) has self time %d over [%d, %d]", i, spans[i].Name, d, spans[i].Start, spans[i].End)
		}
	}
}

func TestShedArrivalsCountAsInfiniteLatency(t *testing.T) {
	var fates []fate
	for i := 0; i < 80; i++ {
		fates = append(fates, fate{kind: fateDone, ms: float64(i + 1)})
	}
	for i := 0; i < 20; i++ {
		fates = append(fates, fate{kind: fateShed})
	}
	all := sortedCopy(latencySamples(fates, true))
	if len(all) != 100 || !math.IsInf(all[99], 1) {
		t.Fatalf("with every arrival counted, sheds must be +Inf samples: got %d samples, last %v", len(all), all[len(all)-1])
	}
	if v, err := percentile(all, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(all, 0.85); err == nil {
		t.Fatal("p85 lands on a shed arrival and must be refused, not reported")
	}
	admitted := latencySamples(fates, false)
	if len(admitted) != 80 {
		t.Fatalf("admitted-only samples = %d, want the 80 admitted transfers", len(admitted))
	}
	lost := latencySamples([]fate{{kind: fateLost}}, false)
	if len(lost) != 1 || !math.IsInf(lost[0], 1) {
		t.Fatalf("an admitted transfer that never finished must count as +Inf, got %v", lost)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: surfbench reports %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: surfbench reports %s (%s), BENCHMARK.json declares %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which surfbench does not run", w.Name)
		}
	}
}
