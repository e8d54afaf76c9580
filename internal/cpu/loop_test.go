package cpu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestInfinitePDTIsNeverSleep: PDT = +Inf under PolicyTimeout is the
// never-sleep limit, bit for bit.
func TestInfinitePDTIsNeverSleep(t *testing.T) {
	for _, closed := range []bool{false, true} {
		cfg := paperConfig(math.Inf(1), 0.25)
		cfg.SimTime = 2000
		if closed {
			cfg.Arrivals = nil
			cfg.Closed = &workload.Closed{Customers: 3, Think: dist.ExpMean(2)}
		}
		inf, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = PolicyNeverSleep
		cfg.PDT = 0.5
		never, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *inf != *never {
			t.Fatalf("closed=%v: PDT=+Inf gave\n%+v\nnever-sleep gave\n%+v", closed, *inf, *never)
		}
		if inf.PowerCycles != 1 || inf.Fractions[energy.Standby] != 0 {
			t.Fatalf("closed=%v: PDT=+Inf powered down: %+v", closed, *inf)
		}
	}
}

// badSource draws one valid gap and then the given value.
type badSource struct {
	n   int
	bad float64
}

func (b *badSource) Next(*xrand.Rand) float64 {
	if b.n++; b.n > 1 {
		return b.bad
	}
	return 1
}
func (b *badSource) Rate() float64  { return 1 }
func (b *badSource) String() string { return "bad" }

// badDist always draws the given value.
type badDist float64

func (d badDist) Sample(*xrand.Rand) float64 { return float64(d) }
func (d badDist) Mean() float64              { return float64(d) }
func (d badDist) Var() float64               { return 0 }
func (d badDist) String() string             { return "bad" }

// TestInvalidDrawnDelayIsAnError: a user Source or Distribution drawing a
// negative or non-finite delay fails the run with an error instead of
// panicking or hanging. A Source's +Inf is the documented end of arrivals
// and is not an error.
func TestInvalidDrawnDelayIsAnError(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(-1)} {
		cfg := paperConfig(0.5, 0.001)
		cfg.Arrivals = &badSource{bad: bad}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "arrival source") {
			t.Errorf("source drawing %v: err = %v", bad, err)
		}
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := paperConfig(0.5, 0.001)
		cfg.Service = badDist(bad)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "service time") {
			t.Errorf("service drawing %v: err = %v", bad, err)
		}
		cfg = paperConfig(0.5, 0.001)
		cfg.Arrivals = nil
		cfg.Closed = &workload.Closed{Customers: 2, Think: badDist(bad)}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "think time") {
			t.Errorf("think time drawing %v: err = %v", bad, err)
		}
	}
}

// TestEventsAtHorizonDispatch: an event at exactly Warmup+SimTime still
// dispatches, so a job arriving on the horizon is counted.
func TestEventsAtHorizonDispatch(t *testing.T) {
	cfg := Config{
		Arrivals: workload.NewPeriodic(1),
		Service:  dist.NewDeterministic(0.25),
		PDT:      0.5,
		SimTime:  5,
		Seed:     1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsArrived != 5 {
		t.Fatalf("arrivals at t=1..5 with horizon 5: counted %d, want 5", res.JobsArrived)
	}
}

// TestSimultaneousEventsKeepScheduleOrder: with periodic arrivals every
// second, a 0.25 s service and a 0.75 s PDT, the PDT timer armed at
// k+0.25 expires at exactly k+1, the instant of the next arrival, which
// was scheduled earlier (at k). The earlier-scheduled arrival wins, so
// the CPU never powers down after the first power-up.
func TestSimultaneousEventsKeepScheduleOrder(t *testing.T) {
	cfg := Config{
		Arrivals: workload.NewPeriodic(1),
		Service:  dist.NewDeterministic(0.25),
		PDT:      0.75,
		SimTime:  100,
		Seed:     1,
	}
	res, tr, err := RunWithTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerCycles != 1 {
		t.Fatalf("power cycles = %d, want 1 (arrival must precede the tied PDT expiry)", res.PowerCycles)
	}
	if got := tr.TotalIn(energy.Standby); got != 1 {
		t.Fatalf("standby time = %v, want only the initial 1 s", got)
	}
}
