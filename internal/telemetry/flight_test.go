package telemetry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic monotonic clock advancing 1ms per read.
func flightClock() func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	f := fr.Start("t-1")
	if f != nil {
		t.Fatal("nil recorder must start nil flights")
	}
	if ev := f.Record(FlightAdmitted, 0, 0, 0, 0, ""); ev != (FlightEvent{}) {
		t.Fatalf("nil flight Record = %+v, want zero", ev)
	}
	if f.Events() != nil || f.Len() != 0 || f.Dropped() != 0 || f.ID() != "" {
		t.Fatal("nil flight accessors must return empty")
	}
	fr.Retire(f)
	if fr.Recent() != nil || fr.Retired() != 0 {
		t.Fatal("nil recorder accessors must return empty")
	}
}

func TestFlightRecordsOrderedStampedEvents(t *testing.T) {
	fr := NewFlightRecorder(0, 0, flightClock())
	f := fr.Start("t-1")
	f.Record(FlightAdmitted, 0, 0, 0, 0, "")
	f.Record(FlightQueueEnter, 0, 3, 0, 0, "")
	f.Record(FlightQueueExit, 2, 1, 0, 0, "")
	f.Record(FlightTerminal, 2, 0, 0, 0, "completed")
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 {
			if ev.WallNs <= evs[i-1].WallNs {
				t.Fatalf("wall stamps not strictly increasing under the fake clock: %d then %d",
					evs[i-1].WallNs, ev.WallNs)
			}
			if ev.Tick < evs[i-1].Tick {
				t.Fatalf("ticks went backwards: %d then %d", evs[i-1].Tick, ev.Tick)
			}
		}
	}
	if evs[0].Kind != FlightAdmitted || evs[3].Kind != FlightTerminal {
		t.Fatalf("kind order wrong: %v ... %v", evs[0].Kind, evs[3].Kind)
	}
	if evs[3].Note != "completed" {
		t.Fatalf("terminal note = %q", evs[3].Note)
	}
	if f.StartWallNs() != evs[0].WallNs {
		t.Fatalf("StartWallNs = %d, want %d", f.StartWallNs(), evs[0].WallNs)
	}
}

// TestFlightRingBounded pins the bounded-ring contract: the ring keeps the
// most recent cap events, Seq stays gap-free across eviction, and the first
// event's stamps survive for latency derivation.
func TestFlightRingBounded(t *testing.T) {
	fr := NewFlightRecorder(4, 0, flightClock())
	f := fr.Start("t-1")
	first := f.Record(FlightAdmitted, 0, 0, 0, 0, "")
	for i := 1; i < 10; i++ {
		f.Record(FlightExecuted, int64(i), 0, 0, 0, "")
	}
	if f.Len() != 10 || f.Dropped() != 6 {
		t.Fatalf("len/dropped = %d/%d, want 10/6", f.Len(), f.Dropped())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) {
			t.Fatalf("retained event %d has seq %d, want %d", i, ev.Seq, 6+i)
		}
	}
	if f.StartWallNs() != first.WallNs || f.StartTick() != 0 {
		t.Fatal("first-event stamps must survive eviction")
	}
}

// TestFlightRingGrowsOnDemand pins the on-demand ring: a short flight does
// not allocate the full bound up front, and a ring that reaches its bound
// still wraps with the same eviction and ordering.
func TestFlightRingGrowsOnDemand(t *testing.T) {
	f := NewFlightRecorder(0, 0, flightClock()).Start("t-1")
	for i := 0; i < 3; i++ {
		f.Record(FlightExecuted, int64(i), 0, 0, 0, "")
	}
	if len(f.Events()) != 3 || cap(f.ring) >= defaultFlightEvents {
		t.Fatalf("3-event flight: %d events in a ring of cap %d, want 3 in less than %d",
			len(f.Events()), cap(f.ring), defaultFlightEvents)
	}

	f = NewFlightRecorder(4, 0, flightClock()).Start("t-2")
	for i := 0; i < 10; i++ {
		f.Record(FlightExecuted, int64(i), 0, 0, 0, "")
	}
	if f.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", f.Dropped())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) || ev.Tick != int64(6+i) {
			t.Fatalf("retained event %d = seq %d tick %d, want %d", i, ev.Seq, ev.Tick, 6+i)
		}
	}
}

func TestFlightRecorderRetainsLastN(t *testing.T) {
	fr := NewFlightRecorder(8, 3, flightClock())
	for i := 0; i < 5; i++ {
		f := fr.Start(string(rune('a' + i)))
		f.Record(FlightAdmitted, int64(i), 0, 0, 0, "")
		f.Record(FlightTerminal, int64(i), 0, 0, 0, "completed")
		fr.Retire(f)
	}
	recent := fr.Recent()
	if len(recent) != 3 {
		t.Fatalf("retained %d flights, want 3", len(recent))
	}
	for i, want := range []string{"c", "d", "e"} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d] = %q, want %q (oldest first)", i, recent[i].ID, want)
		}
		if len(recent[i].Events) != 2 {
			t.Fatalf("recent[%d] has %d events", i, len(recent[i].Events))
		}
	}
	if fr.Retired() != 5 {
		t.Fatalf("retired = %d, want 5", fr.Retired())
	}
}

// TestFlightConcurrentRecording drives one flight from many goroutines and
// checks the ring stays internally consistent (gap-free seq over the retained
// window, nondecreasing wall stamps at read time). Run under -race in CI.
func TestFlightConcurrentRecording(t *testing.T) {
	fr := NewFlightRecorder(128, 4, nil)
	f := fr.Start("t-1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Record(FlightExecuted, int64(g), int64(i), 0, 0, "")
			}
		}(g)
	}
	wg.Wait()
	if f.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", f.Len())
	}
	evs := f.Events()
	if len(evs) != 128 {
		t.Fatalf("retained %d, want 128", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].WallNs < evs[i-1].WallNs {
			t.Fatalf("wall stamp regressed: %d then %d", evs[i-1].WallNs, evs[i].WallNs)
		}
	}
}

func TestFlightKindStrings(t *testing.T) {
	kinds := []FlightKind{
		FlightAdmitted, FlightQueueEnter, FlightQueueExit, FlightEpochAssigned,
		FlightPlanned, FlightFaultCoincident, FlightExecuted, FlightDecodeVerdict,
		FlightRetryScheduled, FlightTerminal,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if FlightKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render unknown")
	}
}
