package faults

import (
	"math"
	"sort"

	"surfnet/internal/network"
)

// endSlot returns the slot an outage starting at slot and lasting duration
// slots ends at, saturating at math.MaxInt. Both arguments are
// non-negative, but durations arrive from outside the program (fault scripts
// and repair slots on the CLI and the admin API), and a wrapped sum would end
// the outage before it began.
func endSlot(slot, duration int) int {
	if duration > math.MaxInt-slot {
		return math.MaxInt
	}
	return slot + duration
}

// fiberCrashes is the paper's §V-B failure model: each in-scope fiber
// crashes independently per slot and stays down for a fixed repair time.
// Its Step consumes one draw per up fiber, in enumeration order.
type fiberCrashes struct {
	prob      float64
	repair    int
	slot      int
	downUntil map[int]int
}

// NewFiberCrashes returns the stochastic fiber-crash scenario: per-slot
// crash probability prob, outages lasting repair slots.
func NewFiberCrashes(prob float64, repair int) Injector {
	if prob <= 0 {
		return nil
	}
	return &fiberCrashes{prob: prob, repair: repair, downUntil: make(map[int]int)}
}

func (c *fiberCrashes) Step(sc Scope, emit func(Event)) {
	c.slot = sc.Slot
	if sc.Fibers == nil {
		return
	}
	sc.Fibers(func(fi int) {
		if until, down := c.downUntil[fi]; down {
			if sc.Slot < until {
				return
			}
			delete(c.downUntil, fi)
			send(emit, Event{Kind: FiberRepair, Slot: sc.Slot, ID: fi})
		}
		if sc.Src.Bool(c.prob) {
			until := endSlot(sc.Slot, c.repair)
			c.downUntil[fi] = until
			send(emit, Event{Kind: FiberCrash, Slot: sc.Slot, ID: fi, Until: until})
		}
	})
}

func (c *fiberCrashes) FiberDown(fi int) bool {
	until, down := c.downUntil[fi]
	return down && c.slot < until
}

func (c *fiberCrashes) NodeDown(int) bool { return false }

func (c *fiberCrashes) Gamma(_ int, gamma float64) float64 { return gamma }

// nodeOutages takes whole nodes out of service. The engine scopes it to the
// upcoming error-correction servers: a down server skips its scheduled
// correction and the code degrades to destination-only decoding instead of
// failing outright.
type nodeOutages struct {
	prob      float64
	repair    int
	slot      int
	downUntil map[int]int
}

// NewNodeOutages returns the stochastic node-outage scenario.
func NewNodeOutages(prob float64, repair int) Injector {
	if prob <= 0 {
		return nil
	}
	return &nodeOutages{prob: prob, repair: repair, downUntil: make(map[int]int)}
}

func (c *nodeOutages) Step(sc Scope, emit func(Event)) {
	c.slot = sc.Slot
	if sc.Nodes == nil {
		return
	}
	sc.Nodes(func(v int) {
		if until, down := c.downUntil[v]; down {
			if sc.Slot < until {
				return
			}
			delete(c.downUntil, v)
			send(emit, Event{Kind: NodeRepair, Slot: sc.Slot, ID: v})
		}
		if sc.Src.Bool(c.prob) {
			until := endSlot(sc.Slot, c.repair)
			c.downUntil[v] = until
			send(emit, Event{Kind: NodeCrash, Slot: sc.Slot, ID: v, Until: until})
		}
	})
}

func (c *nodeOutages) FiberDown(int) bool { return false }

func (c *nodeOutages) NodeDown(v int) bool {
	until, down := c.downUntil[v]
	return down && c.slot < until
}

func (c *nodeOutages) Gamma(_ int, gamma float64) float64 { return gamma }

// regional models correlated failures: a struck node goes down together with
// every fiber incident to it (a power or cooling event at one site).
// Candidate nodes are the endpoints of in-scope fibers, visited in
// first-seen enumeration order.
type regional struct {
	net        *network.Network
	prob       float64
	repair     int
	slot       int
	nodeUntil  map[int]int
	fiberUntil map[int]int
}

// NewRegional returns the correlated regional-failure scenario over net.
func NewRegional(net *network.Network, prob float64, repair int) Injector {
	if prob <= 0 {
		return nil
	}
	return &regional{
		net: net, prob: prob, repair: repair,
		nodeUntil:  make(map[int]int),
		fiberUntil: make(map[int]int),
	}
}

func (c *regional) Step(sc Scope, emit func(Event)) {
	c.slot = sc.Slot
	if sc.Fibers == nil {
		return
	}
	seen := map[int]bool{}
	sc.Fibers(func(fi int) {
		f := c.net.Fiber(fi)
		for _, v := range [2]int{f.A, f.B} {
			if seen[v] {
				continue
			}
			seen[v] = true
			if until, down := c.nodeUntil[v]; down {
				if sc.Slot < until {
					continue
				}
				delete(c.nodeUntil, v)
				send(emit, Event{Kind: RegionRepair, Slot: sc.Slot, ID: v})
			}
			if sc.Src.Bool(c.prob) {
				until := endSlot(sc.Slot, c.repair)
				c.nodeUntil[v] = until
				for _, inc := range c.net.Incident(v) {
					if c.fiberUntil[int(inc)] < until {
						c.fiberUntil[int(inc)] = until
					}
				}
				send(emit, Event{Kind: RegionCrash, Slot: sc.Slot, ID: v, Until: until})
			}
		}
	})
}

func (c *regional) FiberDown(fi int) bool { return c.slot < c.fiberUntil[fi] }

func (c *regional) NodeDown(v int) bool {
	until, down := c.nodeUntil[v]
	return down && c.slot < until
}

func (c *regional) Gamma(_ int, gamma float64) float64 { return gamma }

// drift degrades instead of breaking: an afflicted fiber's gamma decays
// multiplicatively each slot of a bounded episode, then snaps back — a
// misaligned or thermally cycling link rather than a cut one.
type drift struct {
	prob     float64
	window   int
	decay    float64
	slot     int
	episodes map[int]int // fiber -> episode start slot
}

// NewDrift returns the fidelity-drift scenario: each in-scope fiber enters a
// drift episode with probability prob per slot; for window slots its gamma
// is scaled by decay^k where k counts slots into the episode.
func NewDrift(prob float64, window int, decay float64) Injector {
	if prob <= 0 || window <= 0 {
		return nil
	}
	return &drift{prob: prob, window: window, decay: decay, episodes: make(map[int]int)}
}

func (c *drift) Step(sc Scope, emit func(Event)) {
	c.slot = sc.Slot
	if sc.Fibers == nil {
		return
	}
	sc.Fibers(func(fi int) {
		if start, ok := c.episodes[fi]; ok {
			if sc.Slot < endSlot(start, c.window) {
				return // drifting fibers stay afflicted; no new draw
			}
			delete(c.episodes, fi)
			send(emit, Event{Kind: DriftEnd, Slot: sc.Slot, ID: fi})
		}
		if sc.Src.Bool(c.prob) {
			c.episodes[fi] = sc.Slot
			send(emit, Event{Kind: DriftStart, Slot: sc.Slot, ID: fi, Until: endSlot(sc.Slot, c.window)})
		}
	})
}

func (c *drift) FiberDown(int) bool { return false }

func (c *drift) NodeDown(int) bool { return false }

func (c *drift) Gamma(fi int, gamma float64) float64 {
	start, ok := c.episodes[fi]
	if !ok || c.slot >= endSlot(start, c.window) {
		return gamma
	}
	return gamma * math.Pow(c.decay, float64(c.slot-start+1))
}

// ScriptedFault is one entry of a fault timetable: at Slot, the target goes
// down for Duration slots.
type ScriptedFault struct {
	// Slot is the activation slot.
	Slot int
	// Duration is how many slots the outage lasts.
	Duration int
	// Node targets a node outage when true, a fiber outage otherwise.
	Node bool
	// ID is the fiber or node ID.
	ID int
}

// scripted replays an exact outage timetable — no randomness at all, for
// reproducible what-if scenarios and tests.
type scripted struct {
	events     []ScriptedFault // sorted by Slot
	next       int
	slot       int
	fiberUntil map[int]int
	nodeUntil  map[int]int
}

// NewScripted returns the scripted scenario. Events are applied in Slot
// order (stable for equal slots).
func NewScripted(events []ScriptedFault) Injector {
	if len(events) == 0 {
		return nil
	}
	sorted := append([]ScriptedFault(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
	return &scripted{
		events:     sorted,
		fiberUntil: make(map[int]int),
		nodeUntil:  make(map[int]int),
	}
}

func (c *scripted) Step(sc Scope, emit func(Event)) {
	c.slot = sc.Slot
	for c.next < len(c.events) && c.events[c.next].Slot <= sc.Slot {
		ev := c.events[c.next]
		c.next++
		until := endSlot(ev.Slot, ev.Duration)
		if ev.Node {
			if c.nodeUntil[ev.ID] < until {
				c.nodeUntil[ev.ID] = until
			}
			send(emit, Event{Kind: NodeCrash, Slot: sc.Slot, ID: ev.ID, Until: until})
		} else {
			if c.fiberUntil[ev.ID] < until {
				c.fiberUntil[ev.ID] = until
			}
			send(emit, Event{Kind: FiberCrash, Slot: sc.Slot, ID: ev.ID, Until: until})
		}
	}
}

func (c *scripted) FiberDown(fi int) bool { return c.slot < c.fiberUntil[fi] }

func (c *scripted) NodeDown(v int) bool { return c.slot < c.nodeUntil[v] }

func (c *scripted) Gamma(_ int, gamma float64) float64 { return gamma }
