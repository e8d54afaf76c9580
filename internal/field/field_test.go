package field

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/network"
	"repro/internal/petri"
)

func testCPU() core.Config {
	cfg := core.PaperConfig()
	cfg.SimTime = 0 // fields take Horizon from field.Config, not the CPU config
	return cfg
}

// TestOneNodeFieldMatchesSimulate is the composition-hook equivalence test:
// a field of one node must reproduce a plain petri.Simulate of the same
// net and seed bit for bit — same firings, same state fractions — because
// the only field-level interaction (outbox draining) touches no timer and
// draws no randomness.
func TestOneNodeFieldMatchesSimulate(t *testing.T) {
	const (
		id      = 7 // non-dense ID: seeding must key on the ID, not the index
		rate    = 1.2
		horizon = 300.0
		warmup  = 25.0
		seed    = 20080901
	)
	cpu := testCPU()
	cfg := Config{
		Nodes:   []Node{{ID: id, Parent: id, SampleRate: rate}},
		CPU:     cpu,
		Radio:   energy.FirstOrderRadio(),
		Battery: energy.AA2850,
		Horizon: horizon,
		Warmup:  warmup,
		Seed:    seed,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	net := BuildNodeNet(cpu, rate)
	want, err := petri.Simulate(net, petri.SimOptions{
		Seed:     NodeSeed(seed, id),
		Warmup:   warmup,
		Duration: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}

	n := res.Nodes[0]
	ar, _ := net.TransitionByName(core.TransAR)
	sr, _ := net.TransitionByName(core.TransSR)
	if n.Samples != want.Firings[ar] || n.Processed != want.Firings[sr] {
		t.Fatalf("firings diverge: field %d/%d, plain %d/%d",
			n.Samples, n.Processed, want.Firings[ar], want.Firings[sr])
	}
	if res.Delivered != want.Firings[sr] {
		t.Fatalf("delivered %d != plain SR firings %d", res.Delivered, want.Firings[sr])
	}
	for state, place := range map[energy.State]string{
		energy.Standby: core.PlaceStandBy,
		energy.PowerUp: core.PlacePowerUp,
		energy.Idle:    core.PlaceIdle,
		energy.Active:  core.PlaceActive,
	} {
		if got := n.CPUFractions[state]; got != want.PlaceAvgByName(net, place) {
			t.Fatalf("fraction of %s diverges: field %v, plain %v",
				place, got, want.PlaceAvgByName(net, place))
		}
	}
	if want := cpu.Power.EnergyJoules(n.CPUFractions, horizon); n.CPUEnergyJ != want {
		t.Fatalf("CPU energy %v != %v", n.CPUEnergyJ, want)
	}
	// A single sink has no radio traffic: only sensing and listening cost.
	if n.TxPackets != 0 || n.RxPackets != 0 || n.TxEnergyJ != 0 || n.RxEnergyJ != 0 {
		t.Fatalf("lone sink has radio traffic: %+v", n)
	}
}

// TestFieldEnergyAccounting is the energy conservation property test:
// the field total equals the sum of per-node energies, each node total
// equals its component breakdown, and packet counters balance hop by hop.
func TestFieldEnergyAccounting(t *testing.T) {
	cfg := Config{
		Nodes:   TreeTopology(13, 3, 0.8, 12),
		CPU:     testCPU(),
		Radio:   energy.FirstOrderRadio(),
		Battery: energy.AA2850,
		Horizon: 400,
		Warmup:  40,
		Seed:    7,
	}
	cfg.Radio.ListenMW = 0.05
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var total float64
	rxFromChildren := map[int]uint64{}
	for _, n := range res.Nodes {
		total += n.EnergyJ
		if sum := n.TxEnergyJ + n.RxEnergyJ + n.AggEnergyJ + n.SenseEnergyJ + n.ListenEnergyJ; n.RadioEnergyJ != sum {
			t.Fatalf("node %d: radio subtotal %v != component sum %v", n.ID, n.RadioEnergyJ, sum)
		}
		if n.EnergyJ != n.CPUEnergyJ+n.RadioEnergyJ {
			t.Fatalf("node %d: total %v != CPU %v + radio %v", n.ID, n.EnergyJ, n.CPUEnergyJ, n.RadioEnergyJ)
		}
		if n.CPUEnergyJ < 0 || n.RadioEnergyJ < 0 || n.EnergyJ < 0 {
			t.Fatalf("node %d: negative energy: %+v", n.ID, n)
		}
		if n.Parent != n.ID {
			rxFromChildren[n.Parent] += n.TxPackets
		}
	}
	if res.TotalEnergyJ != total {
		t.Fatalf("TotalEnergyJ %v != per-node sum %v", res.TotalEnergyJ, total)
	}
	var sink *NodeResult
	for i := range res.Nodes {
		n := &res.Nodes[i]
		if n.RxPackets != rxFromChildren[n.ID] {
			t.Fatalf("node %d received %d packets, children transmitted %d",
				n.ID, n.RxPackets, rxFromChildren[n.ID])
		}
		if n.Parent == n.ID {
			sink = n
		}
	}
	if res.Delivered != sink.Processed {
		t.Fatalf("delivered %d != sink completions %d", res.Delivered, sink.Processed)
	}
	if res.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// Nodes closer to the sink carry more traffic; the bottleneck must be
	// an interior node, not a leaf.
	var bn *NodeResult
	for i := range res.Nodes {
		if res.Nodes[i].ID == res.Bottleneck {
			bn = &res.Nodes[i]
		}
	}
	if bn == nil {
		t.Fatalf("bottleneck %d not reported", res.Bottleneck)
	}
	if bn.LifetimeSeconds != res.LifetimeSeconds {
		t.Fatalf("bottleneck lifetime %v != network lifetime %v", bn.LifetimeSeconds, res.LifetimeSeconds)
	}
	for _, n := range res.Nodes {
		if n.LifetimeSeconds < res.LifetimeSeconds {
			t.Fatalf("node %d outlives... dies at %v, before reported network lifetime %v",
				n.ID, n.LifetimeSeconds, res.LifetimeSeconds)
		}
	}
}

// TestFieldMatchesAnalyticLine is the cross-check oracle: on a
// CPU-dominated line topology the simulated per-node and network lifetimes
// must agree with the analytic network.Analyze (Markov CPU + airtime
// radio) within tolerance.
func TestFieldMatchesAnalyticLine(t *testing.T) {
	const (
		n       = 5
		rate    = 0.5
		horizon = 4000.0
		warmup  = 400.0
		tol     = 0.06
	)
	cpu := testCPU()
	fieldCfg := Config{
		Nodes: LineTopology(n, rate, 1),
		CPU:   cpu,
		// Zero radio coefficients: energy is CPU-only on both sides of the
		// comparison.
		Radio:   energy.Radio{PacketBits: 2048},
		Battery: energy.AA2850,
		Horizon: horizon,
		Warmup:  warmup,
		Seed:    20080901,
	}
	sim, err := Simulate(fieldCfg)
	if err != nil {
		t.Fatal(err)
	}

	anNodes := make([]network.Node, n)
	for i := range anNodes {
		parent := i - 1 // -1 marks the sink in the analytic model
		anNodes[i] = network.Node{ID: i, Parent: parent, SampleRate: rate}
	}
	an, err := network.Analyze(network.Config{
		Nodes:        anNodes,
		CPU:          core.PaperConfig(),
		TxTime:       1e-9, // vanishing airtime: the analytic radio draw is ~0
		RxTime:       1e-9,
		ListenPeriod: 1,
		ListenWindow: 0,
		Battery:      energy.AA2850,
	})
	if err != nil {
		t.Fatal(err)
	}

	relDiff := func(a, b float64) float64 { return math.Abs(a-b) / b }
	if d := relDiff(sim.LifetimeSeconds, an.LifetimeSeconds); d > tol {
		t.Fatalf("network lifetime diverges %.1f%%: simulated %v s, analytic %v s",
			100*d, sim.LifetimeSeconds, an.LifetimeSeconds)
	}
	if sim.Bottleneck != an.Bottleneck {
		t.Fatalf("bottleneck diverges: simulated %d, analytic %d", sim.Bottleneck, an.Bottleneck)
	}
	for i, sn := range sim.Nodes {
		if d := relDiff(sn.LifetimeSeconds, an.Nodes[i].LifetimeSeconds); d > tol {
			t.Fatalf("node %d lifetime diverges %.1f%%: simulated %v s, analytic %v s",
				sn.ID, 100*d, sn.LifetimeSeconds, an.Nodes[i].LifetimeSeconds)
		}
	}
}

// TestFieldPlacementIndependence: results are a function of (topology,
// seed) only — the order nodes are listed in must not matter, because
// per-node seeds derive from IDs and the scheduler breaks ties
// deterministically.
func TestFieldPlacementIndependence(t *testing.T) {
	base := Config{
		Nodes:   TreeTopology(10, 2, 1, 8),
		CPU:     testCPU(),
		Radio:   energy.FirstOrderRadio(),
		Battery: energy.AA2850,
		Horizon: 200,
		Warmup:  20,
		Seed:    99,
	}
	want, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}

	shuffled := base
	shuffled.Nodes = append([]Node(nil), base.Nodes...)
	for i := range shuffled.Nodes { // deterministic reversal is enough
		j := len(shuffled.Nodes) - 1 - i
		if i >= j {
			break
		}
		shuffled.Nodes[i], shuffled.Nodes[j] = shuffled.Nodes[j], shuffled.Nodes[i]
	}
	got, err := Simulate(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("results depend on node listing order:\nwant %+v\ngot  %+v", want, got)
	}

	// And the run is reproducible outright.
	again, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("identical configs produced different results")
	}
}

func TestFieldValidate(t *testing.T) {
	good := DefaultConfig(LineTopology(3, 0.5, 10))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"no nodes":       func(c *Config) { c.Nodes = nil },
		"zero horizon":   func(c *Config) { c.Horizon = 0 },
		"neg warmup":     func(c *Config) { c.Warmup = -1 },
		"zero mu":        func(c *Config) { c.CPU.Mu = 0 },
		"neg pdt":        func(c *Config) { c.CPU.PDT = -1 },
		"neg power":      func(c *Config) { c.CPU.Power.MW[0] = -5 },
		"bad radio":      func(c *Config) { c.Radio.ElecJPerBit = -1 },
		"bad battery":    func(c *Config) { c.Battery.CapacitymAh = 0 },
		"dup id":         func(c *Config) { c.Nodes[2].ID = c.Nodes[1].ID },
		"zero rate":      func(c *Config) { c.Nodes[1].SampleRate = 0 },
		"no sink":        func(c *Config) { c.Nodes[0].Parent = 1 },
		"two sinks":      func(c *Config) { c.Nodes[1].Parent = 1 },
		"unknown parent": func(c *Config) { c.Nodes[2].Parent = 42 },
		"cycle": func(c *Config) {
			c.Nodes = append(c.Nodes, Node{ID: 3, Parent: 4, SampleRate: 1}, Node{ID: 4, Parent: 3, SampleRate: 1})
		},
	}
	for name, mutate := range cases {
		cfg := DefaultConfig(LineTopology(3, 0.5, 10))
		cfg.Nodes = append([]Node(nil), cfg.Nodes...)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestFieldValidateRouting pins the exact routing errors of Validate: the
// reported node is the first in slice order whose walk toward the sink
// fails, and an unknown hop names the missing parent ID.
func TestFieldValidateRouting(t *testing.T) {
	node := func(id, parent int) Node { return Node{ID: id, Parent: parent, SampleRate: 1} }
	reversed := func(nodes []Node) []Node {
		out := make([]Node, len(nodes))
		for i, n := range nodes {
			out[len(nodes)-1-i] = n
		}
		return out
	}
	deepUnknown := LineTopology(8, 0.5, 10)
	deepUnknown[2].Parent = 99
	mergeThenCycle := TreeTopology(13, 3, 0.5, 10)
	mergeThenCycle = append(mergeThenCycle, node(20, 21), node(21, 22), node(22, 20), node(23, 21))
	cases := []struct {
		name  string
		nodes []Node
		want  string // "" means the routing is valid
	}{
		{"no sink", []Node{node(0, 1), node(1, 0)}, "field: no sink (a node with Parent == ID)"},
		{"two sinks", []Node{node(0, 0), node(1, 1)}, "field: nodes 0 and 1 both claim to be the sink"},
		{"unknown parent of a leaf", []Node{node(0, 0), node(1, 0), node(2, 7)},
			"field: node 2 routes through unknown node 7"},
		// Node 7 comes first and its walk crosses five known relays
		// before hitting the unknown hop; nodes 3..6 fail the same way
		// but later in slice order.
		{"unknown parent deep in a chain", reversed(deepUnknown),
			"field: node 7 routes through unknown node 99"},
		{"cycle not containing the first node", []Node{node(0, 0), node(1, 0), node(2, 3), node(3, 4), node(4, 2)},
			"field: routing cycle involving node 2"},
		{"path leading into a cycle", []Node{node(0, 0), node(5, 2), node(1, 0), node(2, 3), node(3, 4), node(4, 2)},
			"field: routing cycle involving node 5"},
		{"cycle after the sink", []Node{node(3, 4), node(4, 3), node(0, 0)},
			"field: routing cycle involving node 3"},
		{"second sink behind a relay", []Node{node(0, 0), node(1, 2), node(2, 2)},
			"field: nodes 0 and 2 both claim to be the sink"},
		{"walks merge into verified paths", TreeTopology(40, 3, 0.5, 10), ""},
		{"walks merge into verified paths, leaves first", reversed(TreeTopology(40, 3, 0.5, 10)), ""},
		{"merging walks, then a cycle entered from outside", mergeThenCycle,
			"field: routing cycle involving node 20"},
		{"merging walks, then a walk into the cycle", append(TreeTopology(13, 3, 0.5, 10), node(23, 21), node(21, 22), node(22, 21)),
			"field: routing cycle involving node 23"},
		// At one walk to the sink per node this line costs ~2·10¹⁰ map
		// lookups; it must be accepted, in linear time.
		{"long line", LineTopology(200_000, 0.5, 10), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.nodes)
			err := cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid routing rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want %q", tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("got %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

func TestTopologies(t *testing.T) {
	for name, nodes := range map[string][]Node{
		"line": LineTopology(6, 0.5, 10),
		"star": StarTopology(6, 0.5, 10),
		"tree": TreeTopology(6, 2, 0.5, 10),
	} {
		cfg := DefaultConfig(nodes)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: constructor produced invalid topology: %v", name, err)
		}
	}
	// Star children all sit at the configured radius.
	for _, n := range StarTopology(8, 1, 25)[1:] {
		if d := Distance(n.Pos, Position{}); math.Abs(d-25) > 1e-9 {
			t.Fatalf("star node %d at distance %v, want 25", n.ID, d)
		}
	}
	// Tree parents follow the (i-1)/fanout rule.
	tree := TreeTopology(10, 3, 1, 5)
	for i := 1; i < len(tree); i++ {
		if tree[i].Parent != (i-1)/3 {
			t.Fatalf("tree node %d has parent %d", i, tree[i].Parent)
		}
	}
}

func TestFieldEstimatorRegistry(t *testing.T) {
	est, err := core.NewEstimator("field12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(est.Name(), "n=12") || !strings.Contains(est.Name(), "tree") {
		t.Fatalf("field12 resolved to %q", est.Name())
	}
	if _, err := core.NewEstimator("fieldline"); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEstimator("fieldstar9"); err != nil {
		t.Fatal(err)
	}

	cfg := core.PaperConfig()
	cfg.SimTime = 60
	cfg.Warmup = 10
	cfg.Lambda = 0.5
	got, err := est.EstimateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ <= 0 || got.Node.LifetimeSeconds <= 0 || got.Node.PacketsPerSecond <= 0 {
		t.Fatalf("degenerate estimate: %+v", got)
	}
	if err := got.Fractions.Validate(0.02); err != nil {
		t.Fatalf("bottleneck fractions: %v", err)
	}
	if got.Node.TotalAvgMW <= got.Node.CPUAvgMW {
		t.Fatalf("radio share missing: %+v", got.Node)
	}

	bad := Estimator{Topology: "mesh", N: 4}
	if _, err := bad.EstimateContext(context.Background(), cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestFieldCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(TreeTopology(20, 4, 2, 10))
	cfg.Horizon = 5000
	if _, err := SimulateContext(ctx, cfg); err == nil {
		t.Fatal("cancelled context did not abort the field")
	}
}
