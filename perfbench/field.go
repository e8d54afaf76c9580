package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/petri"
)

// Field geometry: nodes on a side×side grid at gridSpacing, each jittered
// by at most gridJitter per axis, linked within radioRange. With these
// values a node always reaches its four grid neighbours and never a
// diagonal one (straight links are at most 11.05 m, diagonal at least
// 12.7 m), so hop counts are Manhattan distances to the central sink.
const (
	gridSpacing = 10.0
	gridJitter  = 0.5
	radioRange  = 12.0
	// sinkRho is the sink CPU's offered load N·rate/μ that sizes the
	// per-node sample rate.
	sinkRho = 0.5
)

// gridField places side² nodes on the jittered grid and routes every node
// to the central sink along a shortest-hop path (ties: the nearer
// candidate parent, then the lower ID). Each node senses at the rate that
// puts the sink's CPU at offered load rho.
func gridField(seed uint64, side int, rho, mu float64) ([]field.Node, error) {
	n := side * side
	rate := rho * mu / float64(n)
	rng := rand.New(rand.NewPCG(seed, 0x6669_656c_64))
	nodes := make([]field.Node, n)
	for id := range nodes {
		r, c := id/side, id%side
		nodes[id] = field.Node{
			ID:         id,
			SampleRate: rate,
			Pos: field.Position{
				X: float64(c)*gridSpacing + (2*rng.Float64()-1)*gridJitter,
				Y: float64(r)*gridSpacing + (2*rng.Float64()-1)*gridJitter,
			},
		}
	}
	// Links reach at most two grid cells in each direction.
	neighbours := func(id int) []int {
		r, c := id/side, id%side
		var out []int
		for dr := -2; dr <= 2; dr++ {
			for dc := -2; dc <= 2; dc++ {
				rr, cc := r+dr, c+dc
				if (dr == 0 && dc == 0) || rr < 0 || cc < 0 || rr >= side || cc >= side {
					continue
				}
				j := rr*side + cc
				if field.Distance(nodes[id].Pos, nodes[j].Pos) <= radioRange {
					out = append(out, j)
				}
			}
		}
		return out
	}
	sink := (side/2)*side + side/2
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[sink] = 0
	queue := []int{sink}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range neighbours(u) {
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for id := range nodes {
		if hops[id] < 0 {
			return nil, fmt.Errorf("node %d cannot reach the sink", id)
		}
		if id == sink {
			nodes[id].Parent = id
			continue
		}
		best, bestD := -1, math.Inf(1)
		for _, v := range neighbours(id) {
			if hops[v] != hops[id]-1 {
				continue
			}
			if d := field.Distance(nodes[id].Pos, nodes[v].Pos); d < bestD {
				best, bestD = v, d
			}
		}
		nodes[id].Parent = best
	}
	return nodes, nil
}

// maxRho returns the highest CPU offered load (λ_subtree/μ) of any node
// of a validated field — the sink's, since every packet ends there.
func maxRho(cfg field.Config) (rho float64, at int) {
	idx := make(map[int]int, len(cfg.Nodes))
	for i, nd := range cfg.Nodes {
		idx[nd.ID] = i
	}
	load := make([]float64, len(cfg.Nodes))
	for _, nd := range cfg.Nodes {
		for i := idx[nd.ID]; ; i = idx[cfg.Nodes[i].Parent] {
			load[i] += nd.SampleRate
			if cfg.Nodes[i].Parent == cfg.Nodes[i].ID {
				break
			}
		}
	}
	for i, l := range load {
		if l/cfg.CPU.Mu > rho {
			rho, at = l/cfg.CPU.Mu, cfg.Nodes[i].ID
		}
	}
	return rho, at
}

// checkStable rejects a field input that does not validate or whose
// busiest CPU runs at ρ ≥ 1: such a field saturates and measures a
// pathological regime.
func checkStable(cfg field.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rho, at := maxRho(cfg); rho >= 1 {
		return fmt.Errorf("unstable field input: node %d CPU offered load ρ = %.3g ≥ 1", at, rho)
	}
	return nil
}

// fieldRun simulates one 10k-node field, repeated identically every
// operation (the field is a pure function of its seed).
type fieldRun struct {
	tr     *tracer
	cfg    field.Config
	dieoff bool
	jobs   float64 // CPU jobs of the last run
}

func prepareFieldSteady(p params, tr *tracer) (func() (instance, error), error) {
	return prepareField(p, tr, false)
}

func prepareFieldDieoff(p params, tr *tracer) (func() (instance, error), error) {
	return prepareField(p, tr, true)
}

// prepareField generates and checks the seeded field; start then makes the
// program's set-up calls, building and validating the configuration.
func prepareField(p params, tr *tracer, dieoff bool) (func() (instance, error), error) {
	nodes, err := gridField(p.seed, p.size.fieldSide, sinkRho, core.PaperConfig().Mu)
	if err != nil {
		return nil, err
	}
	if err := checkStable(fieldConfig(p, nodes, dieoff)); err != nil {
		return nil, err
	}
	return func() (instance, error) {
		cfg := fieldConfig(p, nodes, dieoff)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &fieldRun{tr: tr, cfg: cfg, dieoff: dieoff}, nil
	}, nil
}

// fieldConfig is the field run on the given nodes.
func fieldConfig(p params, nodes []field.Node, dieoff bool) field.Config {
	cfg := field.DefaultConfig(nodes)
	cfg.Horizon = p.size.fieldHorizon
	// No warmup: every delivered packet was then sensed inside the
	// measured window, so Delivered ≤ ΣSamples holds exactly, and a node's
	// simulated lifetime is its death time.
	cfg.Warmup = 0
	cfg.Seed = p.seed
	if dieoff {
		cfg.Battery = energy.Battery{CapacitymAh: p.size.dieoffmAh, Volts: 3}
	}
	return cfg
}

func (f *fieldRun) op(i int) (opResult, error) {
	f.tr.setOp(i)
	sp := f.tr.begin("field", "field.simulate", 0)
	res, err := field.Simulate(f.cfg)
	sp.end()
	if err != nil {
		return opResult{}, err
	}
	if err := checkField(res, f.dieoff); err != nil {
		return opResult{}, err
	}
	counts := fieldCounts(res)
	f.jobs = counts["field.jobs"]
	return opResult{work: nodeSeconds(res, f.cfg.Horizon), counts: counts}, nil
}

// nodeSeconds is the simulated node-seconds of a run with no warmup: each
// node counts until it dies or the horizon ends.
func nodeSeconds(res *field.Result, horizon float64) float64 {
	s := 0.0
	for _, n := range res.Nodes {
		s += math.Min(n.DeathTime, horizon)
	}
	return s
}

// fieldCounts are a field run's exact counts.
func fieldCounts(res *field.Result) map[string]float64 {
	jobs := 0.0
	for _, n := range res.Nodes {
		jobs += float64(n.Processed)
	}
	return map[string]float64{
		"field.jobs":      jobs,
		"field.delivered": float64(res.Delivered),
		"field.deaths":    float64(len(res.Deaths)),
		"field.dropped":   float64(res.DroppedInFlight + res.DroppedNoRoute),
	}
}

// checkField verifies a field result: energy adds up, the sink never
// absorbs more packets than were sensed, a steady field delivers at least
// 95% of its samples with no death, and a die-off field loses every node
// in chronological order.
func checkField(res *field.Result, dieoff bool) error {
	var errs []error
	total, samples := 0.0, uint64(0)
	for _, n := range res.Nodes {
		total += n.EnergyJ
		samples += n.Samples
	}
	if math.Abs(total-res.TotalEnergyJ) > 1e-9*math.Max(1, math.Abs(total)) {
		errs = append(errs, fmt.Errorf("TotalEnergyJ %.12g != Σ node EnergyJ %.12g", res.TotalEnergyJ, total))
	}
	if res.Delivered > samples {
		errs = append(errs, fmt.Errorf("delivered %d > sensed %d", res.Delivered, samples))
	}
	if !dieoff {
		if float64(res.Delivered) < 0.95*float64(samples) {
			errs = append(errs, fmt.Errorf("delivered %d < 95%% of sensed %d: the input is not stable", res.Delivered, samples))
		}
		if len(res.Deaths) != 0 {
			errs = append(errs, fmt.Errorf("%d nodes died in the steady field", len(res.Deaths)))
		}
	} else {
		if len(res.Deaths) != len(res.Nodes) {
			errs = append(errs, fmt.Errorf("%d of %d nodes died", len(res.Deaths), len(res.Nodes)))
		}
		for k := 1; k < len(res.Deaths); k++ {
			if res.Deaths[k].Time < res.Deaths[k-1].Time {
				errs = append(errs, fmt.Errorf("death %d at %v precedes death %d at %v", k, res.Deaths[k].Time, k-1, res.Deaths[k-1].Time))
				break
			}
		}
	}
	return errors.Join(errs...)
}

func (f *fieldRun) layers(ops int) (map[string]float64, error) {
	m := map[string]float64{}
	sims := f.tr.durations("field.simulate")
	m["field.simulate_s"] = median(sims)
	m["field.ns_per_job"] = 1e9 * median(sims) / f.jobs

	var val []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if err := f.cfg.Validate(); err != nil {
			return m, err
		}
		val = append(val, time.Since(t0).Seconds()*1e3)
	}
	m["field.validate_ms"] = median(val)

	// Engine set-up per node: compile the node net, then hold one open
	// session per node seed at once, as a field run does, and close them.
	t0 := time.Now()
	rate := f.cfg.Nodes[0].SampleRate
	comp, err := petri.Compile(field.BuildNodeNet(f.cfg.CPU, rate))
	if err != nil {
		return m, err
	}
	sessions := make([]*petri.Session, 0, len(f.cfg.Nodes))
	closeAll := func() {
		for _, s := range sessions {
			s.Close()
		}
	}
	for _, n := range f.cfg.Nodes {
		s, err := comp.OpenSession(context.Background(), petri.SimOptions{
			Seed: field.NodeSeed(f.cfg.Seed, n.ID), Warmup: f.cfg.Warmup, Duration: f.cfg.Horizon,
		})
		if err != nil {
			closeAll()
			return m, err
		}
		sessions = append(sessions, s)
	}
	closeAll()
	m["petri.open_session_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(f.cfg.Nodes))
	return m, nil
}

func (f *fieldRun) close() {}
