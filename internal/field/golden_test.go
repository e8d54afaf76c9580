package field

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/energy"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// formatPrePRResult renders every result field that existed before live
// battery depletion landed, with full float precision. The golden file it
// is compared against was generated by the pre-depletion simulator, so a
// byte-identical match proves the no-death path still produces exactly the
// trajectories and accounting it did when lifetime was extrapolated.
func formatPrePRResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Time=%v Delivered=%d TotalEnergyJ=%v LifetimeSeconds=%v Bottleneck=%d\n",
		res.Time, res.Delivered, res.TotalEnergyJ, res.LifetimeSeconds, res.Bottleneck)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %d parent=%d dist=%v rate=%v samples=%d processed=%d tx=%d rx=%d\n",
			n.ID, n.Parent, n.Distance, n.SampleRate, n.Samples, n.Processed, n.TxPackets, n.RxPackets)
		fmt.Fprintf(&b, "  fractions=%v\n", n.CPUFractions)
		fmt.Fprintf(&b, "  cpuJ=%v txJ=%v rxJ=%v aggJ=%v senseJ=%v listenJ=%v radioJ=%v totalJ=%v\n",
			n.CPUEnergyJ, n.TxEnergyJ, n.RxEnergyJ, n.AggEnergyJ, n.SenseEnergyJ, n.ListenEnergyJ,
			n.RadioEnergyJ, n.EnergyJ)
		fmt.Fprintf(&b, "  avgMW=%v lifetimeS=%v\n", n.AvgPowerMW, n.LifetimeSeconds)
	}
	return b.String()
}

// TestFieldNoDeathGolden pins the no-death path bit for bit: with the stock
// AA battery no node comes close to dying, and every pre-existing result
// field — trajectories, counters, energies, the extrapolated lifetimes —
// must match the committed golden byte for byte.
func TestFieldNoDeathGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tree13", func() Config {
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
			return cfg
		}()},
		{"line5", func() Config {
			return Config{
				Nodes:   LineTopology(5, 0.5, 15),
				CPU:     testCPU(),
				Radio:   energy.FirstOrderRadio(),
				Battery: energy.AA2850,
				Horizon: 300,
				Warmup:  30,
				Seed:    20080901,
			}
		}()},
	}
	var b strings.Builder
	for _, tc := range cases {
		res, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", tc.name, formatPrePRResult(res))
	}
	got := b.String()

	path := filepath.Join("testdata", "nodeath_trajectory.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("no-death field trajectories diverged from the pre-depletion golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// formatFullResult renders every field of a Result and of each NodeResult,
// floats at full (shortest round-trip) precision: the pre-depletion fields
// as formatPrePRResult prints them, then the death fields.
func formatFullResult(res *Result) string {
	var b strings.Builder
	b.WriteString(formatPrePRResult(res))
	fmt.Fprintf(&b, "FirstDeathSeconds=%v DroppedInFlight=%d DroppedNoRoute=%d\n",
		res.FirstDeathSeconds, res.DroppedInFlight, res.DroppedNoRoute)
	for _, d := range res.Deaths {
		fmt.Fprintf(&b, "death id=%d t=%v dropped=%d\n", d.ID, d.Time, d.Dropped)
	}
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %d died=%v deathT=%v deliveredBefore=%d droppedAtDeath=%d remainingJ=%v\n",
			n.ID, n.Died, n.DeathTime, n.DeliveredBefore, n.DroppedAtDeath, n.RemainingJ)
	}
	return b.String()
}

// deathGoldenConfig is a 40-node 3-ary tree on a starved battery with long
// hops and busy depth-2 relays, so relays die first, leaves are rerouted
// past two dead ancestors in turn, and (given a long enough horizon) the
// sink itself dies and strands the survivors.
func deathGoldenConfig(capacitymAh, horizon, warmup float64) Config {
	cfg := Config{
		Nodes:   TreeTopology(40, 3, 0.05, 150),
		CPU:     testCPU(),
		Radio:   energy.FirstOrderRadio(),
		Battery: energy.Battery{CapacitymAh: capacitymAh, Volts: 3},
		Horizon: horizon,
		Warmup:  warmup,
		Seed:    42,
	}
	for i := 4; i < 13; i++ {
		cfg.Nodes[i].SampleRate = 2
	}
	cfg.Radio.ListenMW = 0.05
	return cfg
}

// TestFieldDeathGolden pins the death path bit for bit: relay deaths,
// repeated reroutes of one subtree, the sink's death and the no-route drops
// after it. Every result field must match the committed golden, which was
// generated before the reroute bookkeeping was last rewritten.
func TestFieldDeathGolden(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		sinkDies bool
	}{
		{"tree40-sinkdeath", deathGoldenConfig(1, 300, 30), true},
		{"tree40-reroute", deathGoldenConfig(2, 80, 20), false},
	}
	var b strings.Builder
	for _, tc := range cases {
		res, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkDeathGoldenCoverage(t, tc.name, tc.cfg, res, tc.sinkDies)
		fmt.Fprintf(&b, "=== %s\n%s", tc.name, formatFullResult(res))
	}
	got := b.String()

	path := filepath.Join("testdata", "death_trajectory.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("death trajectories diverged from the golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// checkDeathGoldenCoverage keeps the golden meaningful: a relay dies before
// the sink, some node outlives both its configured parent and grandparent
// (the grandparent not the sink), which died in that order while the sink
// was alive — two reroutes of one subtree — and the sink dies, with
// no-route drops, exactly when the case says so.
func checkDeathGoldenCoverage(t *testing.T, name string, cfg Config, res *Result, sinkDies bool) {
	t.Helper()
	parent := make(map[int]int, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		parent[n.ID] = n.Parent
	}
	died := make(map[int]float64, len(res.Deaths))
	for _, d := range res.Deaths {
		died[d.ID] = d.Time
	}
	at := func(id int) float64 {
		if tm, ok := died[id]; ok {
			return tm
		}
		return math.Inf(1)
	}
	sink := 0
	if _, ok := died[sink]; ok != sinkDies {
		t.Fatalf("%s: sink died=%v, want %v", name, ok, sinkDies)
	}
	if sinkDies != (res.DroppedNoRoute > 0) {
		t.Fatalf("%s: DroppedNoRoute=%d with sink death %v", name, res.DroppedNoRoute, sinkDies)
	}
	twice := false
	for _, n := range cfg.Nodes {
		p := parent[n.ID]
		g := parent[p]
		if p == sink || g == sink {
			continue
		}
		if at(p) < at(g) && at(g) < at(n.ID) && at(g) < at(sink) {
			twice = true
		}
	}
	if !twice {
		t.Fatalf("%s: no subtree was rerouted twice (deaths %+v)", name, res.Deaths)
	}
}
