package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/petri"
	arrivals "repro/internal/workload"
)

// regenSeeds is how many master seeds a paper-regen run cycles through.
const regenSeeds = 8

// regen regenerates the paper's seven artifacts (Tables 1-5, Figures 4-5)
// in-process, the way `wsnenergy` does with its default flags, starting
// every regeneration from an empty result cache.
type regen struct {
	tr    *tracer
	opts  []experiments.Options  // one per master seed
	ref   []byte                 // rendering of the first seed's warm-up regeneration
	bad   atomic.Int64           // estimates whose fractions do not sum to 1
	first atomic.Pointer[string] // the first of those estimates' check error
	cur   atomic.Uint64          // span id of the artifact call in progress
	ests  []*checkedEstimator
	par   int
	walls []float64 // traced regeneration wall times
}

// prepareRegen draws the master seeds. The paper-regen workload has next
// to no program set-up: start only wraps the registered estimators and
// builds and validates the CLI's default options for each seed.
func prepareRegen(p params, tr *tracer) (func() (instance, error), error) {
	rng := rand.New(rand.NewPCG(p.seed, 0x7265_6765_6e))
	seeds := make([]uint64, regenSeeds)
	for k := range seeds {
		seeds[k] = rng.Uint64()
	}
	return func() (instance, error) {
		r := &regen{tr: tr, par: runtime.GOMAXPROCS(0)}
		// The estimator decorators are always installed, so the
		// result-cache keys (which include the estimator's type) are the
		// same in traced and untraced runs; they time calls only when
		// tracing.
		var ests []core.Estimator
		for _, e := range core.Methods() {
			ce := &checkedEstimator{inner: e, r: r, span: "core.est." + strings.ToLower(e.Name())}
			r.ests = append(r.ests, ce)
			ests = append(ests, ce)
		}
		for _, seed := range seeds {
			opt := experiments.Default()
			opt.Base.SimTime = p.size.regenSimTime
			opt.Base.Replications = p.size.regenReps
			opt.Base.Seed = seed
			opt.Estimators = ests
			if err := opt.Base.Validate(); err != nil {
				return nil, err
			}
			r.opts = append(r.opts, opt)
		}
		return r, nil
	}, nil
}

// checkedEstimator checks every estimate it computes (the state fractions
// must sum to 1) and, when tracing, times the call.
type checkedEstimator struct {
	inner core.Estimator
	r     *regen
	span  string
}

func (c *checkedEstimator) Name() string { return c.inner.Name() }

func (c *checkedEstimator) Estimate(cfg core.Config) (*core.Estimate, error) {
	return c.EstimateContext(context.Background(), cfg)
}

func (c *checkedEstimator) EstimateContext(ctx context.Context, cfg core.Config) (*core.Estimate, error) {
	sp := c.r.tr.begin("core", c.span, c.r.cur.Load())
	est, err := c.inner.EstimateContext(ctx, cfg)
	sp.end()
	if err == nil {
		if bad := checkFractions(est); bad != nil {
			c.r.bad.Add(1)
			msg := bad.Error()
			c.r.first.CompareAndSwap(nil, &msg)
		}
	}
	return est, err
}

// checkFractions verifies that an estimate's state fractions sum to 1.
func checkFractions(est *core.Estimate) error {
	s := 0.0
	for _, st := range energy.States {
		f := est.Fractions[st]
		if f < -1e-12 || math.IsNaN(f) {
			return fmt.Errorf("%s: fraction %v of state %v", est.Method, f, st)
		}
		s += f
	}
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("%s: state fractions sum to %.12g", est.Method, s)
	}
	return nil
}

// op regenerates the seven artifacts with master seed i mod regenSeeds.
// Every time the first seed comes round again its rendering must repeat
// the warm-up's bytes.
func (r *regen) op(i int) (opResult, error) {
	r.tr.setOp(i)
	k := i % len(r.opts)
	start := time.Now()
	r.bad.Store(0)
	r.first.Store(nil)
	out, err := r.render(r.opts[k])
	if err != nil {
		return opResult{}, err
	}
	if r.tr.enabled() {
		r.walls = append(r.walls, time.Since(start).Seconds())
	}
	entries, hits := core.EstimateCacheStats()
	counts := map[string]float64{"core.cache_hits": float64(hits), "core.cache_entries": float64(entries)}
	if n := r.bad.Load(); n > 0 {
		return opResult{}, fmt.Errorf("%d estimates whose state fractions do not sum to 1, first: %s", n, *r.first.Load())
	}
	if hits == 0 {
		return opResult{}, fmt.Errorf("result cache served no lookups")
	}
	switch {
	case i == 0:
		r.ref = out
	case k == 0 && !bytes.Equal(out, r.ref):
		return opResult{}, fmt.Errorf("a cold regeneration with the first seed rendered different bytes")
	}
	return opResult{work: 1, counts: counts}, nil
}

// render resets the process-wide result cache and renders every artifact
// as the CLI's text format would, plus the figures' CSV data.
func (r *regen) render(opt experiments.Options) ([]byte, error) {
	core.ResetEstimateCache()
	ctx := context.Background()
	var b bytes.Buffer
	b.WriteString(experiments.Table1().ASCII())
	b.WriteString(experiments.Table2(opt.Base).ASCII())
	b.WriteString(experiments.Table3(opt.Base.Power).ASCII())
	steps := []struct {
		name string
		run  func() error
	}{
		{"fig4", func() error {
			f, err := experiments.Figure4Ctx(ctx, opt)
			if err == nil {
				b.WriteString(f.ASCIIChart(72, 20) + f.CSV())
			}
			return err
		}},
		{"fig5", func() error {
			f, err := experiments.Figure5Ctx(ctx, opt)
			if err == nil {
				b.WriteString(f.ASCIIChart(72, 20) + f.CSV())
			}
			return err
		}},
		{"table4", func() error {
			t, err := experiments.Table4Ctx(ctx, opt)
			if err == nil {
				b.WriteString(t.ASCII())
			}
			return err
		}},
		{"table5", func() error {
			t, err := experiments.Table5Ctx(ctx, opt)
			if err == nil {
				b.WriteString(t.ASCII())
			}
			return err
		}},
	}
	for _, s := range steps {
		sp := r.tr.begin("experiments", "experiments."+s.name, 0)
		r.cur.Store(sp.id())
		err := s.run()
		sp.end()
		r.cur.Store(0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return b.Bytes(), nil
}

func (r *regen) layers(ops int) (map[string]float64, error) {
	m := map[string]float64{}
	n := float64(max(ops, 1))
	for _, a := range []string{"fig4", "fig5", "table4", "table5"} {
		m["experiments."+a+"_s"] = r.tr.total("experiments."+a) / n
	}
	busy := 0.0
	for _, e := range r.ests {
		s := r.tr.total(e.span)
		m[e.span+"_s"] = s / n
		busy += s
	}
	m["core.pool_busy_frac"] = busy / (sum(r.walls) * float64(r.par))

	// Single-layer probes on the first seed's Figure-3 configuration.
	base := r.opts[0].Base
	var compileUs []float64
	var comp *petri.Compiled
	for k := 0; k < 20; k++ {
		t0 := time.Now()
		c, err := petri.Compile(core.BuildCPUNet(base))
		if err != nil {
			return m, err
		}
		compileUs = append(compileUs, float64(time.Since(t0).Nanoseconds())/1e3)
		comp = c
	}
	m["petri.compile_us"] = median(compileUs)
	var simNs, firings float64
	for k := 0; k < base.Replications; k++ {
		t0 := time.Now()
		res, err := comp.Simulate(petri.SimOptions{Seed: base.Seed + uint64(k), Warmup: base.Warmup, Duration: base.SimTime})
		if err != nil {
			return m, err
		}
		simNs += float64(time.Since(t0).Nanoseconds())
		for _, f := range res.Firings {
			firings += float64(f)
		}
	}
	m["petri.ns_per_firing"] = simNs / firings
	var cpuNs, jobs float64
	for k := 0; k < base.Replications; k++ {
		t0 := time.Now()
		res, err := cpu.Run(cpu.Config{
			Arrivals: arrivals.NewPoisson(base.Lambda),
			Service:  dist.ExpMean(1 / base.Mu),
			PDT:      base.PDT, PUD: base.PUD,
			SimTime: base.SimTime, Warmup: base.Warmup,
			Seed: base.Seed + uint64(k),
		})
		if err != nil {
			return m, err
		}
		cpuNs += float64(time.Since(t0).Nanoseconds())
		jobs += float64(res.JobsServed)
	}
	m["cpu.ns_per_job"] = cpuNs / jobs
	return m, nil
}

func (r *regen) close() { core.ResetEstimateCache() }
