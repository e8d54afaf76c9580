package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// smallSize runs every workload in well under a second per operation.
var smallSize = size{
	regenSimTime: 20, regenReps: 2,
	fieldSide: 10, fieldHorizon: 200, dieoffmAh: 0.1,
	sweepScenarios: 20,
	setupReps:      2,
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(endToEnd) != len(spec.EndToEnd) || len(perLayer) != len(spec.PerLayer) {
		t.Fatal("BENCHMARK.json names a metric twice")
	}
	return endToEnd, perLayer
}

func smallParams(t *testing.T, name string, trace bool) params {
	return params{
		workload: name, seed: 7, seconds: 0.3, trace: trace, size: smallSize,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

func sameMetricSet(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

// TestWorkloadsSmall runs every workload at toy size, untraced and
// traced: all checks pass, every metric BENCHMARK.json names is reported,
// and the exact counts are identical in the two runs.
func TestWorkloadsSmall(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := run(smallParams(t, w.name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted < minOps+1 {
				t.Fatalf("untraced run: correct %v, %d of %d failed", plain.Correct, plain.Failed, plain.Attempted)
			}
			sameMetricSet(t, "untraced", plain.Metrics, endToEnd)
			for name, m := range plain.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			p := smallParams(t, w.name, true)
			traced, err := run(p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run: %d of %d failed", traced.Failed, traced.Attempted)
			}
			sameMetricSet(t, "traced", traced.Metrics, perLayer)
			if len(plain.Counts) == 0 {
				t.Fatal("no exact counts")
			}
			for k, v := range plain.Counts {
				if traced.Counts[k] != v {
					t.Errorf("count %s: untraced %v, traced %v", k, v, traced.Counts[k])
				}
			}
			if _, err := os.Stat(p.traceOut); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// badEstimator returns state fractions that do not sum to 1.
type badEstimator struct{ core.Markov }

func (b badEstimator) EstimateContext(ctx context.Context, cfg core.Config) (*core.Estimate, error) {
	est, err := b.Markov.EstimateContext(ctx, cfg)
	if err == nil {
		est.Fractions[0] += 0.01
	}
	return est, err
}

// startSmall prepares and starts a workload at toy size, untraced.
func startSmall(t *testing.T, name string, prepare func(params, *tracer) (func() (instance, error), error)) instance {
	t.Helper()
	start, err := prepare(smallParams(t, name, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return inst
}

func newSmallRegen(t *testing.T) *regen {
	t.Helper()
	return startSmall(t, "paper-regen", prepareRegen).(*regen)
}

func TestRegenChecksFire(t *testing.T) {
	r := newSmallRegen(t)
	if _, err := r.op(0); err != nil {
		t.Fatal(err)
	}
	// A regeneration with the first seed must repeat the warm-up's bytes.
	r.ref = append([]byte("tampered"), r.ref...)
	if _, err := r.op(regenSeeds); err == nil || !strings.Contains(err.Error(), "different bytes") {
		t.Errorf("tampered reference: got %v", err)
	}
	r.ests[1].inner = badEstimator{}
	if _, err := r.op(1); err == nil || !strings.Contains(err.Error(), "sum to 1") {
		t.Errorf("bad fractions: got %v", err)
	}
}

func TestCountsCheckFires(t *testing.T) {
	ref := map[string]float64{"core.cache_hits": 165, "core.cache_entries": 99}
	if err := sameCounts(ref, map[string]float64{"core.cache_hits": 165, "core.cache_entries": 99}); err != nil {
		t.Fatal(err)
	}
	if err := sameCounts(ref, map[string]float64{"core.cache_hits": 264, "core.cache_entries": 99}); err == nil {
		t.Error("a moved hit count passed")
	}
	if err := sameCounts(ref, nil); err == nil {
		t.Error("missing counts passed")
	}
}

func TestFieldInputCheck(t *testing.T) {
	p := smallParams(t, "field-steady", false)
	mu := core.PaperConfig().Mu
	nodes, err := gridField(1, 20, 0.5, mu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fieldConfig(p, nodes, false)
	if err := checkStable(cfg); err != nil {
		t.Fatalf("ρ=0.5 grid rejected: %v", err)
	}
	// Hop counts on the grid are Manhattan distances to the central sink.
	if rho, at := maxRho(cfg); at != 10*20+10 || rho < 0.4999 || rho > 0.5001 {
		t.Errorf("sink load: ρ=%v at node %d", rho, at)
	}
	saturated, err := gridField(1, 20, 2, mu)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStable(fieldConfig(p, saturated, false)); err == nil {
		t.Error("saturated grid (ρ=2) accepted")
	}
	// The library's tree topology at 10k nodes drives its sink far past
	// saturation.
	if err := checkStable(fieldConfig(p, field.TreeTopology(10000, 4, 0.05, 10), false)); err == nil {
		t.Error("10k-node tree at 0.05 Hz accepted")
	}
	// A routing cycle is rejected before any load is summed.
	nodes[0].Parent, nodes[1].Parent = 1, 0
	if err := checkStable(fieldConfig(p, nodes, false)); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("routing cycle: got %v", err)
	}
}

func smallField(t *testing.T, dieoff bool) (*fieldRun, *field.Result) {
	t.Helper()
	prepare := prepareFieldSteady
	if dieoff {
		prepare = prepareFieldDieoff
	}
	f := startSmall(t, "field-steady", prepare).(*fieldRun)
	res, err := field.Simulate(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkField(res, dieoff); err != nil {
		t.Fatalf("clean run failed its checks: %v", err)
	}
	return f, res
}

func TestFieldChecksFire(t *testing.T) {
	_, steady := smallField(t, false)
	tamper := func(res *field.Result, edit func(*field.Result)) *field.Result {
		c := *res
		c.Nodes = append([]field.NodeResult(nil), res.Nodes...)
		c.Deaths = append([]field.DeathEvent(nil), res.Deaths...)
		edit(&c)
		return &c
	}
	samples := uint64(0)
	for _, n := range steady.Nodes {
		samples += n.Samples
	}
	cases := []struct {
		name   string
		res    *field.Result
		dieoff bool
	}{
		{"energy", tamper(steady, func(r *field.Result) { r.TotalEnergyJ += 1e-3 }), false},
		{"over-delivery", tamper(steady, func(r *field.Result) { r.Delivered = samples + 1 }), false},
		{"unstable", tamper(steady, func(r *field.Result) { r.Delivered = samples / 2 }), false},
		{"steady death", tamper(steady, func(r *field.Result) { r.Deaths = []field.DeathEvent{{ID: 1, Time: 5}} }), false},
		{"survivors", steady, true},
	}
	df, dying := smallField(t, true)
	// Work counts each node until it dies: Σ DeathTime when all die.
	want := 0.0
	for _, n := range dying.Nodes {
		want += n.DeathTime
	}
	h := df.cfg.Horizon
	if got := nodeSeconds(dying, h); got != want || !(got < float64(len(dying.Nodes))*h) {
		t.Errorf("die-off node-seconds %v, want Σ DeathTime %v", got, want)
	}
	if got, want := nodeSeconds(steady, h), float64(len(steady.Nodes))*h; got != want {
		t.Errorf("steady node-seconds %v, want %v", got, want)
	}
	cases = append(cases, struct {
		name   string
		res    *field.Result
		dieoff bool
	}{"death order", tamper(dying, func(r *field.Result) {
		r.Deaths[0], r.Deaths[len(r.Deaths)-1] = r.Deaths[len(r.Deaths)-1], r.Deaths[0]
	}), true})
	for _, c := range cases {
		if err := checkField(c.res, c.dieoff); err == nil {
			t.Errorf("%s: check passed a bad result", c.name)
		}
	}

	// A really saturated field (sink at ρ = 3, past the input check) fails
	// the steady delivery check.
	f, _ := smallField(t, false)
	nodes, err := gridField(1, smallSize.fieldSide, 3, f.cfg.CPU.Mu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.cfg
	cfg.Nodes = nodes
	res, err := field.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkField(res, false); err == nil || !strings.Contains(err.Error(), "not stable") {
		t.Errorf("saturated field: got %v", err)
	}
}

func TestSweepChecksFire(t *testing.T) {
	s := startSmall(t, "sweep-loopback", prepareSweep).(*sweepSvc)
	man, got, err := s.sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(man, got); err != nil {
		t.Fatalf("clean sweep failed its check: %v", err)
	}
	got[3].Estimates[0].Fractions[1] += 1e-15
	if err := s.check(man, got); err == nil {
		t.Error("tampered merge passed")
	}
}

func TestUnionWithin(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := unionWithin(iv, 8, 45); got != 7+10+5 {
		t.Errorf("union = %d, want 22", got)
	}
	tr := newTracer()
	tr.enable(true)
	parent := tr.begin("experiments", "p", 0)
	child := tr.begin("core", "c", parent.id())
	child.end()
	parent.end()
	self := tr.selfTimes()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	want := spans[1].seconds() - spans[0].seconds()
	if d := self["experiments"] - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("parent self time %v, want %v", self["experiments"], want)
	}
}
