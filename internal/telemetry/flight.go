package telemetry

import (
	"sync"
	"time"
)

// Flight recording is the request-scoped half of the observability plane:
// where counters and HDR histograms aggregate over the whole process, a
// Flight is one transfer's own bounded event ring — every lifecycle step
// (admitted, queued, planned, executed, retried, terminal) stamped with the
// service's tick clock (epoch number) and a monotonic wall clock, so "why was
// *this* transfer slow" is answerable after the fact without correlating
// global streams.
//
// The recorder follows the package's instrumentation contract: a nil
// *FlightRecorder starts nil *Flights, and every method on a nil receiver is
// a no-op, so disabling flight recording costs one branch per call site.
// Recording only appends to the flight's own ring — it never reads or writes
// simulation state and draws no randomness — which is what makes it provably
// side-effect-free: deterministic outputs stay byte-identical and
// worker-invariant with flights enabled.

// FlightKind enumerates the typed lifecycle events a flight records.
type FlightKind uint8

const (
	// FlightAdmitted is the first event of every flight: the transfer passed
	// admission control and received an ID.
	FlightAdmitted FlightKind = iota
	// FlightQueueEnter marks entry into the admission queue; A carries the
	// queue depth after the enqueue.
	FlightQueueEnter
	// FlightQueueExit marks departure from the queue into an epoch batch; A
	// carries the queue depth left behind.
	FlightQueueExit
	// FlightEpochAssigned binds the transfer to the epoch that will plan and
	// execute it; A carries the epoch number.
	FlightEpochAssigned
	// FlightPlanned marks the end of the epoch's planning step; Note carries
	// the plan mode (warm, cold, degraded) and A the batch size planned.
	FlightPlanned
	// FlightFaultCoincident marks that the attempt ran while the live fault
	// plane had outages in effect; A and B carry the down fiber and node
	// counts of the overlay.
	FlightFaultCoincident
	// FlightExecuted marks the end of the epoch's execution step; A, B, and C
	// carry the transfer's accepted, delivered, and successful code counts.
	FlightExecuted
	// FlightDecodeVerdict summarizes the attempt's end-to-end decode outcome;
	// A and B carry delivered and successful code counts, Note the verdict
	// ("ok" or "failed").
	FlightDecodeVerdict
	// FlightRetryScheduled marks a failed attempt re-queued with backoff; A
	// carries the backoff in epochs, B the earliest epoch the retry may run
	// in, and Note the failure class that caused the retry.
	FlightRetryScheduled
	// FlightTerminal is the last event of every flight; Note carries
	// "completed" or the terminal failure class.
	FlightTerminal
)

// flightKindNames renders kinds for traces and reports.
var flightKindNames = [...]string{
	FlightAdmitted:        "admitted",
	FlightQueueEnter:      "queue_enter",
	FlightQueueExit:       "queue_exit",
	FlightEpochAssigned:   "epoch_assigned",
	FlightPlanned:         "planned",
	FlightFaultCoincident: "fault_coincident",
	FlightExecuted:        "executed",
	FlightDecodeVerdict:   "decode_verdict",
	FlightRetryScheduled:  "retry_scheduled",
	FlightTerminal:        "terminal",
}

func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// FlightEvent is one recorded lifecycle event. Seq is the flight-local
// sequence number (0-based, gap-free even when the ring has evicted older
// events), Tick the service's causal clock (epoch number) at recording time,
// and WallNs monotonic nanoseconds since the recorder was built. A, B, C are
// kind-specific integer arguments and Note a kind-specific constant string —
// no per-event allocations beyond the ring's own growth.
type FlightEvent struct {
	Seq    uint64
	Kind   FlightKind
	Tick   int64
	WallNs int64
	A      int64
	B      int64
	C      int64
	Note   string
}

// Flight is one transfer's bounded event ring. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Flight struct {
	rec *FlightRecorder
	id  string

	mu sync.Mutex
	// ring grows by append up to max events, then wraps: a typical transfer
	// records about 7 events, so rings are not allocated at the bound.
	ring      []FlightEvent
	max       int    // ring bound
	seq       uint64 // events recorded so far; ring keeps the last max
	firstWall int64  // wall stamp of event 0, surviving ring eviction
	firstTick int64
}

// ID reports the flight's transfer ID ("" on nil).
func (f *Flight) ID() string {
	if f == nil {
		return ""
	}
	return f.id
}

// Record appends one event, stamped with the given tick and the recorder's
// monotonic wall clock, evicting the oldest ring entry when full. It returns
// the stamped event so callers can reuse the stamps (e.g. to derive latency
// without reading the clock twice); the zero FlightEvent on nil.
func (f *Flight) Record(kind FlightKind, tick, a, b, c int64, note string) FlightEvent {
	if f == nil {
		return FlightEvent{}
	}
	ev := FlightEvent{Kind: kind, Tick: tick, A: a, B: b, C: c, Note: note}
	f.mu.Lock()
	// Stamp under the lock: wall stamps are monotone *within a flight* in
	// recording order, so attributed segment durations are never negative.
	ev.WallNs = f.rec.wallNow()
	ev.Seq = f.seq
	if f.seq == 0 {
		f.firstWall = ev.WallNs
		f.firstTick = ev.Tick
	}
	if len(f.ring) < f.max {
		f.ring = append(f.ring, ev)
	} else {
		f.ring[f.seq%uint64(f.max)] = ev
	}
	f.seq++
	f.mu.Unlock()
	return ev
}

// Events returns the retained events in recording order (a fresh copy). When
// the ring has evicted early events, the slice starts at the oldest retained
// one; Dropped reports how many were evicted.
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, len(f.ring))
	if f.seq <= uint64(f.max) {
		copy(out, f.ring)
		return out
	}
	head := int(f.seq % uint64(f.max)) // oldest retained event
	n := copy(out, f.ring[head:])
	copy(out[n:], f.ring[:head])
	return out
}

// Len reports how many events have been recorded in total (including any the
// ring has since evicted).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.seq)
}

// Dropped reports how many early events the bounded ring has evicted.
func (f *Flight) Dropped() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seq <= uint64(f.max) {
		return 0
	}
	return int(f.seq - uint64(f.max))
}

// StartWallNs reports the wall stamp of the flight's first event (0 on nil or
// before any event). It survives ring eviction, so admission-to-now latency
// is always derivable from the latest stamp minus this one.
func (f *Flight) StartWallNs() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstWall
}

// StartTick reports the tick stamp of the flight's first event (0 on nil).
func (f *Flight) StartTick() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstTick
}

// FlightSnapshot is a retired flight's frozen state, retained by the recorder
// for incident bundles.
type FlightSnapshot struct {
	ID      string
	Events  []FlightEvent
	Dropped int
}

// FlightRecorder starts flights with a shared bounded ring size and monotonic
// clock, and retains the last N retired (terminal) flights for one-shot
// incident snapshots. A nil recorder disables flight recording entirely.
type FlightRecorder struct {
	events int
	retain int
	now    func() time.Time
	start  time.Time

	mu     sync.Mutex
	recent []FlightSnapshot // ring of retired flights, oldest first once full
	next   int              // ring write cursor
	total  int64            // flights retired so far
}

// Default sizing: 64 events comfortably covers a transfer burning the full
// retry budget (8 attempts x ~7 events), and 32 retained flights is a useful
// incident window without unbounded growth.
const (
	defaultFlightEvents = 64
	defaultFlightRetain = 32
)

// NewFlightRecorder builds a recorder. events bounds each flight's ring (0
// selects 64), retain bounds the retired-flight window (0 selects 32;
// negative retains none), and now is the monotonic clock (nil selects
// time.Now; tests inject a deterministic clock).
func NewFlightRecorder(events, retain int, now func() time.Time) *FlightRecorder {
	if events == 0 {
		events = defaultFlightEvents
	}
	if events < 1 {
		events = 1
	}
	if retain == 0 {
		retain = defaultFlightRetain
	}
	if retain < 0 {
		retain = 0
	}
	if now == nil {
		now = time.Now
	}
	return &FlightRecorder{
		events: events,
		retain: retain,
		now:    now,
		start:  now(),
	}
}

// wallNow reads monotonic nanoseconds since the recorder was built (0 on a
// nil recorder, so flights of a nil recorder — which never exist — and
// zero-value stamps stay distinguishable from real ones only by event flow).
func (fr *FlightRecorder) wallNow() int64 {
	if fr == nil {
		return 0
	}
	return int64(fr.now().Sub(fr.start))
}

// Start begins a new flight for the given transfer ID (nil on a nil
// recorder). The event ring is allocated on demand as events arrive.
func (fr *FlightRecorder) Start(id string) *Flight {
	if fr == nil {
		return nil
	}
	return &Flight{rec: fr, id: id, max: fr.events}
}

// Retire snapshots a terminal flight into the recorder's bounded recent
// window. No-op on a nil recorder, a nil flight, or a zero retain bound.
func (fr *FlightRecorder) Retire(f *Flight) {
	if fr == nil || f == nil || fr.retain == 0 {
		return
	}
	snap := FlightSnapshot{ID: f.ID(), Events: f.Events(), Dropped: f.Dropped()}
	fr.mu.Lock()
	if len(fr.recent) < fr.retain {
		fr.recent = append(fr.recent, snap)
	} else {
		fr.recent[fr.next%fr.retain] = snap
	}
	fr.next = (fr.next + 1) % fr.retain
	fr.total++
	fr.mu.Unlock()
}

// Recent returns the retained terminal flights, oldest first (a fresh copy).
func (fr *FlightRecorder) Recent() []FlightSnapshot {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]FlightSnapshot, 0, len(fr.recent))
	if len(fr.recent) < fr.retain || fr.next == 0 {
		return append(out, fr.recent...)
	}
	out = append(out, fr.recent[fr.next:]...)
	return append(out, fr.recent[:fr.next]...)
}

// Retired reports how many flights have been retired in total.
func (fr *FlightRecorder) Retired() int64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}
