// Package field is an event-driven sensor-field simulator: it scales the
// paper's single-processor EDSPN model to a whole wireless sensor network.
// Every node runs its own compiled instance of the Figure-3 CPU net (drawn
// from the shared engine pool), all instances advance under one global
// event scheduler, and the nodes are coupled through a routing tree: each
// packet a node's CPU finishes processing is transmitted to its parent,
// where it arrives as fresh workload in the parent's CPU net. Radio energy
// is attributed per packet from the first-order model (energy.Radio),
// using node positions and the e_elec + e_amp·d² transmit law.
//
// This answers the network-level questions the paper's motivation raises
// but a single-node model cannot: network lifetime to first node death,
// where the energy bottleneck sits in a topology, and how lifetime scales
// with density and sample rate.
package field

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/petri"
	"repro/internal/xrand"
)

// PlaceOutbox is the per-node packet outbox: every SR firing (a finished
// CPU job) deposits one token here, and the field scheduler drains it into
// radio transmissions toward the node's parent. It extends the Figure-3
// net without altering its dynamics — the outbox has no outgoing arcs, so
// CPU trajectories are untouched by its presence.
const PlaceOutbox = "Outbox"

// Position is a node location in meters.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two positions.
func Distance(a, b Position) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Node places one sensor node in the field.
type Node struct {
	// ID identifies the node; IDs must be unique but need not be dense.
	ID int
	// Parent is the next hop toward the sink; the single node with
	// Parent == ID is the sink.
	Parent int
	// SampleRate is the node's own sensing rate in samples/s (the Lambda
	// of its CPU net). Must be positive — every node senses.
	SampleRate float64
	// Pos is the node position; transmit energy grows with the square of
	// the distance to the parent.
	Pos Position
}

// Config describes a field simulation.
type Config struct {
	// Nodes is the placed, routed node set.
	Nodes []Node
	// CPU carries the per-node processor parameters (Mu, PDT, PUD, Power).
	// Lambda is ignored: each node's arrival rate is its SampleRate.
	CPU core.Config
	// Radio is the per-packet radio energy table.
	Radio energy.Radio
	// Battery supplies each node.
	Battery energy.Battery
	// Horizon is the measured duration in seconds; Warmup is simulated
	// but excluded from energy accounting and packet counters.
	Horizon float64
	Warmup  float64
	// Seed drives all randomness. Each node derives its private stream
	// from (Seed, ID) — see NodeSeed — so results are independent of node
	// ordering and of scheduling interleave.
	Seed uint64
}

// DefaultConfig returns a field of the given nodes running the paper's CPU
// model with the canonical first-order radio on AA batteries.
func DefaultConfig(nodes []Node) Config {
	cpu := core.PaperConfig()
	return Config{
		Nodes:   nodes,
		CPU:     cpu,
		Radio:   energy.FirstOrderRadio(),
		Battery: energy.AA2850,
		Horizon: cpu.SimTime,
		Warmup:  cpu.Warmup,
		Seed:    cpu.Seed,
	}
}

// Validate checks the configuration: a non-empty node set forming a tree
// with exactly one sink, positive sample rates, a meaningful CPU model and
// physically valid radio and battery tables. The routing check is linear
// in the number of nodes, whatever the tree's depth.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("field: no nodes")
	}
	// The `!(x > 0)` / `!(x >= 0)` forms deliberately catch NaN, which a
	// plain `x <= 0` or `x < 0` comparison lets through — a NaN that slips
	// past validation here poisons every lifetime downstream.
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("field: Horizon must be positive and finite, got %v", c.Horizon)
	}
	if !(c.Warmup >= 0) || math.IsInf(c.Warmup, 0) {
		return fmt.Errorf("field: Warmup must be non-negative and finite, got %v", c.Warmup)
	}
	if !(c.CPU.Mu > 0) || math.IsInf(c.CPU.Mu, 0) {
		return fmt.Errorf("field: CPU.Mu must be positive and finite, got %v", c.CPU.Mu)
	}
	if !(c.CPU.PDT >= 0) || math.IsInf(c.CPU.PDT, 0) || !(c.CPU.PUD >= 0) || math.IsInf(c.CPU.PUD, 0) {
		return fmt.Errorf("field: CPU delays must be non-negative and finite, got PDT=%v PUD=%v", c.CPU.PDT, c.CPU.PUD)
	}
	for _, mw := range c.CPU.Power.MW {
		if mw < 0 || math.IsNaN(mw) || math.IsInf(mw, 0) {
			return fmt.Errorf("field: CPU power table has invalid entry %v", mw)
		}
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if err := c.Battery.Validate(); err != nil {
		return fmt.Errorf("field: %w", err)
	}
	byID := make(map[int]int, len(c.Nodes))
	sink := -1
	for i, n := range c.Nodes {
		if _, dup := byID[n.ID]; dup {
			return fmt.Errorf("field: duplicate node ID %d", n.ID)
		}
		byID[n.ID] = i
		if !(n.SampleRate > 0) || math.IsInf(n.SampleRate, 0) {
			return fmt.Errorf("field: node %d: SampleRate must be positive and finite, got %v", n.ID, n.SampleRate)
		}
		if n.Parent == n.ID {
			if sink >= 0 {
				return fmt.Errorf("field: nodes %d and %d both claim to be the sink", c.Nodes[sink].ID, n.ID)
			}
			sink = i
		}
	}
	if sink < 0 {
		return fmt.Errorf("field: no sink (a node with Parent == ID)")
	}
	// Every node must reach the sink without cycles. One memoized pass: a
	// walk stops at the first node already known to reach the sink, so
	// each node is walked once.
	const (
		unseen = iota
		onWalk
		reaches
	)
	state := make([]uint8, len(c.Nodes))
	state[sink] = reaches
	for i, n := range c.Nodes {
		cur := i
		for state[cur] == unseen {
			state[cur] = onWalk
			parent := c.Nodes[cur].Parent
			pi, ok := byID[parent]
			if !ok {
				return fmt.Errorf("field: node %d routes through unknown node %d", n.ID, parent)
			}
			cur = pi
		}
		if state[cur] == onWalk {
			return fmt.Errorf("field: routing cycle involving node %d", n.ID)
		}
		for cur = i; state[cur] == onWalk; cur = byID[c.Nodes[cur].Parent] {
			state[cur] = reaches
		}
	}
	return nil
}

// NodeSeed derives node id's private RNG seed from the field seed, using
// the same SplitMix64 diffusion the replication and shard machinery use.
// The seed depends only on (fieldSeed, id) — never on the node's index,
// the topology, or the scheduling interleave — so a node's CPU trajectory
// is reproducible in isolation (the 1-node equivalence test relies on
// this).
func NodeSeed(fieldSeed uint64, id int) uint64 {
	r := xrand.NewStream(fieldSeed, uint64(id))
	return r.Uint64()
}

// BuildNodeNet returns the Figure-3 CPU net for one node — the node's
// sample rate as its arrival rate — extended with the Outbox place fed by
// SR. Exported so tests can reproduce a field node's net exactly.
func BuildNodeNet(cpu core.Config, sampleRate float64) *petri.Net {
	cpu.Lambda = sampleRate
	n := core.BuildCPUNet(cpu)
	n.Name = "field-node"
	outbox := n.AddPlace(PlaceOutbox)
	sr, ok := n.TransitionByName(core.TransSR)
	if !ok {
		panic("field: CPU net lost its SR transition")
	}
	n.Output(sr, outbox, 1)
	return n
}

// ---------------------------------------------------------------------------
// Topology constructors

// LineTopology places n nodes in a chain at the given spacing: node 0 is
// the sink at the origin, node i relays through node i-1. All nodes sense
// at rate.
func LineTopology(n int, rate, spacing float64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		parent := i - 1
		if i == 0 {
			parent = 0
		}
		nodes[i] = Node{
			ID:         i,
			Parent:     parent,
			SampleRate: rate,
			Pos:        Position{X: float64(i) * spacing},
		}
	}
	return nodes
}

// StarTopology places n-1 nodes on a circle of the given radius around the
// sink (node 0) at the origin, each transmitting directly to it.
func StarTopology(n int, rate, radius float64) []Node {
	nodes := make([]Node, n)
	nodes[0] = Node{ID: 0, Parent: 0, SampleRate: rate}
	for i := 1; i < n; i++ {
		angle := 2 * math.Pi * float64(i-1) / float64(n-1)
		nodes[i] = Node{
			ID:         i,
			Parent:     0,
			SampleRate: rate,
			Pos:        Position{X: radius * math.Cos(angle), Y: radius * math.Sin(angle)},
		}
	}
	return nodes
}

// TreeTopology places n nodes as a complete fanout-ary tree rooted at the
// sink (node 0): node i's parent is (i-1)/fanout. Depth-d nodes sit on row
// y = d·spacing, spread horizontally by spacing, so deeper rows are denser
// and transmit over comparable distances.
func TreeTopology(n, fanout int, rate, spacing float64) []Node {
	if fanout < 1 {
		fanout = 1
	}
	nodes := make([]Node, n)
	depth := make([]int, n)
	rowNext := map[int]int{}
	for i := range nodes {
		parent := 0
		if i > 0 {
			parent = (i - 1) / fanout
			depth[i] = depth[parent] + 1
		}
		col := rowNext[depth[i]]
		rowNext[depth[i]]++
		nodes[i] = Node{
			ID:         i,
			Parent:     parent,
			SampleRate: rate,
			Pos:        Position{X: float64(col) * spacing, Y: float64(depth[i]) * spacing},
		}
	}
	return nodes
}
