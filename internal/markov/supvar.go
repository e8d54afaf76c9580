package markov

import (
	"fmt"
	"math"

	"repro/internal/energy"
)

// CPUModel is the paper's Markov model of a power-managed processor
// (Section 4.1): Poisson arrivals at rate Lambda, exponential service at
// rate Mu, a deterministic Power Down Threshold T (idle -> standby) and a
// deterministic Power Up Delay D (standby -> serving), analyzed with Cox's
// method of supplementary variables. All results are the closed forms of
// equations (11)–(24).
//
// The stationary solution is exact for D -> 0 and an approximation for
// larger D; quantifying that approximation error against the Petri net and
// the event simulator is the core experiment of the paper (Tables 4 and 5).
type CPUModel struct {
	// Lambda is the Poisson job arrival rate (jobs/s).
	Lambda float64
	// Mu is the exponential service rate (jobs/s).
	Mu float64
	// T is the Power Down Threshold (s): contiguous idle time after which
	// the CPU drops to standby.
	T float64
	// D is the Power Up Delay (s): constant wake-up latency.
	D float64
}

// Validate checks parameter ranges, including queue stability (rho < 1).
func (m CPUModel) Validate() error {
	if m.Lambda <= 0 || math.IsNaN(m.Lambda) {
		return fmt.Errorf("markov: arrival rate must be positive, got %v", m.Lambda)
	}
	if m.Mu <= 0 || math.IsNaN(m.Mu) {
		return fmt.Errorf("markov: service rate must be positive, got %v", m.Mu)
	}
	if m.Lambda >= m.Mu {
		return fmt.Errorf("markov: unstable queue: rho = %v >= 1", m.Lambda/m.Mu)
	}
	if m.T < 0 || m.D < 0 {
		return fmt.Errorf("markov: thresholds must be non-negative, got T=%v D=%v", m.T, m.D)
	}
	return nil
}

// Rho returns the offered load lambda/mu.
func (m CPUModel) Rho() float64 { return m.Lambda / m.Mu }

// denominator evaluates the common denominator of equations (17)–(19):
// e^{λT} + (1-ρ)(1-e^{-λD}) + ρλD.
func (m CPUModel) denominator() float64 {
	rho := m.Rho()
	return math.Exp(m.Lambda*m.T) + (1-rho)*(1-math.Exp(-m.Lambda*m.D)) + rho*m.Lambda*m.D
}

// neverSleeps reports that e^{λT} overflows (T = +Inf, the never-sleep
// policy, or a threshold beyond ~709/λ seconds). The closed forms then
// evaluate Inf/Inf; their limit is the M/M/1 queue, which they equal to
// double precision because the standby share is below e^{-λT}.
func (m CPUModel) neverSleeps() bool {
	return math.IsInf(math.Exp(m.Lambda*m.T), 1)
}

// StateProbs returns the stationary probabilities of the four processor
// states. Standby is equation (17), PowerUp is (18), Idle follows from
// (12), and Active is the utilization G0(1) of equation (19). The four
// values sum to 1 analytically.
func (m CPUModel) StateProbs() energy.Fractions {
	if m.neverSleeps() {
		return m.MM1Probs()
	}
	rho := m.Rho()
	den := m.denominator()
	ps := (1 - rho) / den
	pi := (math.Exp(m.Lambda*m.T) - 1) * ps
	pu := (1 - rho) * (1 - math.Exp(-m.Lambda*m.D)) / den
	util := rho * (math.Exp(m.Lambda*m.T) + m.Lambda*m.D) / den
	var f energy.Fractions
	f[energy.Standby] = ps
	f[energy.Idle] = pi
	f[energy.PowerUp] = pu
	f[energy.Active] = util
	return f
}

// MeanJobs returns L(1), the stationary mean number of jobs in the system
// (equation 21).
func (m CPUModel) MeanJobs() float64 {
	rho := m.Rho()
	if m.neverSleeps() {
		return rho / (1 - rho)
	}
	lam := m.Lambda
	den := m.denominator()
	num := math.Exp(lam*m.T) + 0.5*(1-rho)*lam*lam*m.D*m.D + (2-rho)*lam*m.D
	return rho / (1 - rho) * num / den
}

// MeanLatency returns the mean per-job latency via Little's law
// (equation 22).
func (m CPUModel) MeanLatency() float64 {
	return m.MeanJobs() / m.Lambda
}

// TotalTime returns the paper's total running time for n jobs
// (equation 23): (N + L(1)^2) / lambda.
func (m CPUModel) TotalTime(n int) float64 {
	l := m.MeanJobs()
	return (float64(n) + l*l) / m.Lambda
}

// EnergyJoules evaluates equation (24): expected energy to process n jobs
// under the given power model, in Joules.
func (m CPUModel) EnergyJoules(p energy.PowerModel, n int) float64 {
	return p.EnergyJoules(m.StateProbs(), m.TotalTime(n))
}

// EnergyJoulesOver returns the energy over a fixed horizon (seconds), the
// quantity plotted in Figure 5 when the horizon is the paper's 1000 s
// simulated period.
func (m CPUModel) EnergyJoulesOver(p energy.PowerModel, seconds float64) float64 {
	return p.EnergyJoules(m.StateProbs(), seconds)
}

// MM1Probs returns the M/M/1 limit of the model (T -> infinity: the CPU
// never powers down, so D no longer matters): utilization rho and idle
// probability 1-rho.
func (m CPUModel) MM1Probs() energy.Fractions {
	rho := m.Rho()
	var f energy.Fractions
	f[energy.Idle] = 1 - rho
	f[energy.Active] = rho
	return f
}
