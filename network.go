package surfnet

import (
	"context"

	"surfnet/internal/core"
	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/routing"
	"surfnet/internal/topology"
)

// Network is the static quantum network handed to the routing protocol:
// users, switches and servers connected by dual-channel optical fibers.
type Network = network.Network

// Node is a network node.
type Node = network.Node

// Fiber is an optical fiber carrying both SurfNet channels.
type Fiber = network.Fiber

// Request is a communication request k = [(s_k, d_k), i_k].
type Request = network.Request

// Node roles.
const (
	User   = network.User
	Switch = network.Switch
	Server = network.Server
)

// NewNetwork assembles a network from explicit nodes and fibers.
func NewNetwork(nodes []Node, fibers []Fiber) (*Network, error) {
	return network.New(nodes, fibers)
}

// Facilities describes how well-equipped a generated scenario is.
type Facilities = topology.Facilities

// FidelityRange is a uniform fiber-fidelity distribution.
type FidelityRange = topology.FidelityRange

// The paper's scenario presets (§VI).
var (
	Abundant       = topology.Abundant
	Sufficient     = topology.Sufficient
	Insufficient   = topology.Insufficient
	GoodConnection = topology.GoodConnection
	PoorConnection = topology.PoorConnection
)

// TopologyParams fully specifies a random scenario.
type TopologyParams = topology.Params

// DefaultTopology returns the paper-scale scenario parameters: a 24-node
// Barabási–Albert graph with attachment 2.
func DefaultTopology(f Facilities, fr FidelityRange) TopologyParams {
	return topology.DefaultParams(f, fr)
}

// GenerateNetwork builds a random network scenario.
func GenerateNetwork(p TopologyParams, src *Rand) (*Network, error) {
	return topology.Generate(p, src)
}

// GenRequests draws k random user-to-user requests with up to maxMessages
// surface codes each.
func GenRequests(net *Network, k, maxMessages int, src *Rand) ([]Request, error) {
	return topology.GenRequests(net, k, maxMessages, src)
}

// Design selects one of the five evaluated network designs.
type Design = routing.Design

// The evaluated designs (§VI-B).
const (
	DesignSurfNet       = routing.SurfNet
	DesignRaw           = routing.Raw
	DesignPurification1 = routing.Purification1
	DesignPurification2 = routing.Purification2
	DesignPurification9 = routing.Purification9
)

// RoutingParams are the pre-defined routing parameters of Table I.
type RoutingParams = routing.Params

// DefaultRouting returns paper-scale routing parameters for a design.
func DefaultRouting(d Design) RoutingParams { return routing.DefaultParams(d) }

// Schedule is an offline-scheduling output.
type Schedule = routing.Schedule

// ScheduleRoutes runs the paper's scheduler: the LP relaxation of the
// routing integer program (Eq. 1-6) with rounding, falling back to greedy
// admission for designs outside the formulation.
func ScheduleRoutes(net *Network, reqs []Request, p RoutingParams) (Schedule, error) {
	return routing.ScheduleLP(net, reqs, p)
}

// ScheduleGreedy runs the pure greedy shortest-noise-path comparator.
func ScheduleGreedy(net *Network, reqs []Request, p RoutingParams) (Schedule, error) {
	return routing.Greedy(net, reqs, p, nil, nil)
}

// EngineConfig parameterizes online execution (§V-B).
type EngineConfig = core.Config

// DefaultEngine returns the paper-default execution engine: distance-5 code,
// SurfNet Decoder, two-fiber opportunistic segments.
func DefaultEngine() EngineConfig { return core.DefaultConfig() }

// RunResult aggregates the execution outcomes of a schedule.
type RunResult = core.RunResult

// Outcome records the execution of one scheduled surface code.
type Outcome = core.Outcome

// Execute runs every scheduled code through the online execution engine and
// reports per-communication outcomes (fidelity, latency, corrections).
func Execute(net *Network, sched Schedule, cfg EngineConfig, src *Rand) (RunResult, error) {
	eng, err := core.NewEngine(net, cfg)
	if err != nil {
		return RunResult{}, err
	}
	return eng.ExecuteParallel(context.Background(), sched, src, 1)
}

// RoundConfig drives continuous operation: per-round request arrival,
// scheduling against refreshed budgets, execution, and backlog carry-over
// (§V-A's "before each round of routing...").
type RoundConfig = core.RoundConfig

// RoundsResult aggregates a continuous multi-round run.
type RoundsResult = core.RoundsResult

// DefaultRounds returns a paper-scale continuous-operation configuration.
func DefaultRounds() RoundConfig { return core.DefaultRoundConfig() }

// Operate runs the network continuously for the configured rounds.
func Operate(net *Network, rc RoundConfig, src *Rand) (RoundsResult, error) {
	return core.RunRounds(net, rc, src)
}

// FaultProfile is the declarative fault-injection scenario attached to an
// EngineConfig: stochastic fiber crashes, node/server outages, correlated
// regional failures, fidelity drift, and scripted outage timetables.
type FaultProfile = faults.Profile

// ScriptedFault is one entry of an exact outage timetable.
type ScriptedFault = faults.ScriptedFault

// ParseFaultScript parses a scripted outage timetable from its textual form
// (comma-separated SLOT:fiber|node:ID:DURATION entries), shared by the
// faultsim -script and surfnetd -fault-script flags.
func ParseFaultScript(arg string) ([]ScriptedFault, error) {
	return faults.ParseScript(arg)
}
