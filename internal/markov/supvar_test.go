package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
)

// paperModel returns the paper's Table 2 operating point: lambda = 1 job/s,
// mean service 0.1 s (mu = 10/s), with the given thresholds.
func paperModel(T, D float64) CPUModel {
	return CPUModel{Lambda: 1, Mu: 10, T: T, D: D}
}

func TestValidate(t *testing.T) {
	if err := paperModel(0.5, 0.001).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CPUModel{
		{Lambda: 0, Mu: 1},
		{Lambda: 1, Mu: 0},
		{Lambda: 2, Mu: 1},            // unstable
		{Lambda: 1, Mu: 2, T: -1},     // negative threshold
		{Lambda: 1, Mu: 2, D: -0.001}, // negative delay
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted: %+v", i, m)
		}
	}
}

// TestProbabilitiesSumToOne verifies the paper's normalization (eq. 10):
// ps + pi + pu + G0(1) = 1 holds analytically for random parameters.
func TestProbabilitiesSumToOne(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		lambda := 0.05 + float64(a%400)/100 // up to ~4
		mu := lambda*1.05 + float64(b%500)/50
		T := float64(c%300) / 100 // 0..3
		D := float64(d%2000) / 100
		m := CPUModel{Lambda: lambda, Mu: mu, T: T, D: D}
		return math.Abs(m.StateProbs().Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestExactAtZeroDelay: with D = 0 the model is exact; the idle/standby
// split is (e^{λT}-1) : 1 and utilization is exactly rho.
func TestExactAtZeroDelay(t *testing.T) {
	m := paperModel(0.5, 0)
	p := m.StateProbs()
	if math.Abs(p[energy.Active]-0.1) > 1e-12 {
		t.Fatalf("utilization = %v, want rho = 0.1", p[energy.Active])
	}
	if p[energy.PowerUp] != 0 {
		t.Fatalf("powerup = %v, want 0 at D=0", p[energy.PowerUp])
	}
	ratio := p[energy.Idle] / p[energy.Standby]
	want := math.Exp(m.Lambda*m.T) - 1
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("idle:standby = %v, want %v", ratio, want)
	}
}

// TestMM1LimitLargeT: as T grows the CPU never sleeps; idle -> 1-rho and
// active -> rho (the M/M/1 limit).
func TestMM1LimitLargeT(t *testing.T) {
	m := paperModel(20, 0.001) // e^{20} >> other terms
	p := m.StateProbs()
	if math.Abs(p[energy.Active]-0.1) > 1e-6 {
		t.Fatalf("active = %v, want 0.1", p[energy.Active])
	}
	if math.Abs(p[energy.Idle]-0.9) > 1e-6 {
		t.Fatalf("idle = %v, want 0.9", p[energy.Idle])
	}
	if p[energy.Standby] > 1e-6 || p[energy.PowerUp] > 1e-6 {
		t.Fatalf("standby/powerup = %v/%v, want ~0", p[energy.Standby], p[energy.PowerUp])
	}
	// Mean jobs approaches the M/M/1 value rho/(1-rho).
	if math.Abs(m.MeanJobs()-0.1/0.9) > 1e-4 {
		t.Fatalf("L = %v, want ~%v", m.MeanJobs(), 0.1/0.9)
	}
}

// TestNeverSleepLimit: T = +Inf (and any T large enough that e^{λT}
// overflows) is the M/M/1 limit, not Inf/Inf = NaN.
func TestNeverSleepLimit(t *testing.T) {
	for _, T := range []float64{math.Inf(1), 800} {
		m := paperModel(T, 10)
		if p := m.StateProbs(); p != m.MM1Probs() {
			t.Fatalf("T=%v: StateProbs = %v, want the M/M/1 limit %v", T, p, m.MM1Probs())
		}
		if got, want := m.MeanJobs(), m.Rho()/(1-m.Rho()); got != want {
			t.Fatalf("T=%v: L = %v, want %v", T, got, want)
		}
	}
}

// TestImmediateSleepLimit: at T = 0 and D = 0 the CPU sleeps whenever the
// queue is empty: standby = 1-rho, active = rho, idle = 0.
func TestImmediateSleepLimit(t *testing.T) {
	m := paperModel(0, 0)
	p := m.StateProbs()
	if math.Abs(p[energy.Standby]-0.9) > 1e-12 || math.Abs(p[energy.Active]-0.1) > 1e-12 {
		t.Fatalf("probs = %v, want standby 0.9 / active 0.1", p)
	}
	if p[energy.Idle] != 0 {
		t.Fatalf("idle = %v, want 0", p[energy.Idle])
	}
}

func TestStandbyDecreasesWithThreshold(t *testing.T) {
	// Raising the Power Down Threshold keeps the CPU idle longer, so the
	// standby share must fall monotonically (Figure 4's main trend).
	prev := math.Inf(1)
	for _, T := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
		ps := paperModel(T, 0.001).StateProbs()[energy.Standby]
		if ps >= prev {
			t.Fatalf("standby fraction not decreasing at T=%v: %v >= %v", T, ps, prev)
		}
		prev = ps
	}
}

func TestEnergyIncreasesWithThreshold(t *testing.T) {
	// Figure 5: energy grows with the Power Down Threshold because idle
	// power (88 mW) exceeds standby power (17 mW).
	prev := 0.0
	for _, T := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		e := paperModel(T, 0.001).EnergyJoulesOver(energy.PXA271, 1000)
		if e <= prev {
			t.Fatalf("energy not increasing at T=%v: %v <= %v", T, e, prev)
		}
		prev = e
	}
}

func TestMeanJobsAndLatencyLittleLaw(t *testing.T) {
	m := paperModel(0.5, 0.3)
	if math.Abs(m.MeanLatency()-m.MeanJobs()/m.Lambda) > 1e-15 {
		t.Fatal("Little's law identity violated by construction")
	}
}

func TestTotalTimeEquation23(t *testing.T) {
	m := paperModel(0.5, 0.001)
	l := m.MeanJobs()
	want := (1000 + l*l) / m.Lambda
	if math.Abs(m.TotalTime(1000)-want) > 1e-12 {
		t.Fatalf("TotalTime = %v, want %v", m.TotalTime(1000), want)
	}
}

func TestEnergyJoulesEquation24(t *testing.T) {
	m := paperModel(0.5, 0.001)
	p := m.StateProbs()
	avgMW := 17*p[energy.Standby] + 192.442*p[energy.PowerUp] + 88*p[energy.Idle] + 193*p[energy.Active]
	want := avgMW * m.TotalTime(1000) / 1000
	if math.Abs(m.EnergyJoules(energy.PXA271, 1000)-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", m.EnergyJoules(energy.PXA271, 1000), want)
	}
}

// TestUtilizationDriftsWithD documents the approximation error the paper
// reports in Tables 4/5: the supplementary-variable utilization formula
// overestimates the true constant utilization rho as D grows.
func TestUtilizationDriftsWithD(t *testing.T) {
	rho := 0.1
	small := paperModel(0.5, 0.001).StateProbs()[energy.Active]
	big := paperModel(0.5, 10).StateProbs()[energy.Active]
	if math.Abs(small-rho) > 1e-3 {
		t.Fatalf("small-D utilization = %v, want ~rho", small)
	}
	if big < rho+0.1 {
		t.Fatalf("large-D utilization = %v; expected the documented over-estimate (> %v)", big, rho+0.1)
	}
}

func TestMM1Probs(t *testing.T) {
	p := paperModel(1, 1).MM1Probs()
	if math.Abs(p[energy.Active]-0.1) > 1e-12 || math.Abs(p[energy.Idle]-0.9) > 1e-12 {
		t.Fatalf("MM1Probs = %v", p)
	}
}
