// Package cpu is the event-driven software simulator of the power-managed
// processor — the reproduction of the paper's Matlab simulator, which the
// paper treats as ground truth for both the Markov model and the Petri net.
//
// The simulated semantics follow Section 4 exactly: jobs arrive from an
// open (or closed) workload into a FIFO queue served at exponential (or
// general) service times; when the queue empties the CPU idles, and after a
// contiguous idle interval of PDT seconds it drops to standby; an arrival
// finding the CPU in standby triggers a constant PUD-second power-up before
// service resumes. The simulator reports the time fraction spent in each of
// the four power states (standby, power-up, idle, active), from which
// equation 25 yields energy.
//
// The event loop allocates nothing per event. The one pending power-up or
// service completion and the one PDT timer (cancelled by disarming it) are
// fixed slots; pending arrivals (one for an open workload, one per
// thinking customer for a closed one) sit in a value-typed min-heap.
// Events dispatch in (time, schedule order), so simultaneous events
// resolve in the order they were scheduled; events at exactly the horizon
// still dispatch.
package cpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Policy selects the power-management strategy.
type Policy int

const (
	// PolicyTimeout powers down after PDT seconds of contiguous idleness
	// (the paper's model).
	PolicyTimeout Policy = iota
	// PolicyNeverSleep keeps the CPU on forever (PDT = +Inf): the plain
	// M/M/1 baseline.
	PolicyNeverSleep
	// PolicyAlwaysSleep powers down the instant the queue empties
	// (PDT = 0).
	PolicyAlwaysSleep
)

func (p Policy) String() string {
	switch p {
	case PolicyTimeout:
		return "timeout"
	case PolicyNeverSleep:
		return "never-sleep"
	case PolicyAlwaysSleep:
		return "always-sleep"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Arrivals is the open-workload source. Exactly one of Arrivals and
	// Closed must be set.
	Arrivals workload.Source
	// Closed, when non-nil, selects a closed workload instead.
	Closed *workload.Closed
	// Service is the per-job service time distribution.
	Service dist.Distribution
	// PDT is the Power Down Threshold in seconds (used by PolicyTimeout);
	// +Inf never powers down.
	PDT float64
	// PUD is the Power Up Delay in seconds.
	PUD float64
	// Policy is the power-management policy (default PolicyTimeout).
	Policy Policy
	// SimTime is the measured simulation horizon in seconds.
	SimTime float64
	// Warmup is simulated before measurement starts.
	Warmup float64
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if (c.Arrivals == nil) == (c.Closed == nil) {
		return fmt.Errorf("cpu: exactly one of Arrivals and Closed must be set")
	}
	if c.Closed != nil {
		if err := c.Closed.Validate(); err != nil {
			return err
		}
	}
	if c.Service == nil {
		return fmt.Errorf("cpu: Service distribution is required")
	}
	// PDT = +Inf is allowed: the CPU never powers down (PolicyNeverSleep).
	if !(c.PDT >= 0) {
		return fmt.Errorf("cpu: PDT must be non-negative, got %v", c.PDT)
	}
	if !(c.PUD >= 0) || math.IsInf(c.PUD, 1) {
		return fmt.Errorf("cpu: PUD must be non-negative and finite, got %v", c.PUD)
	}
	if !(c.SimTime > 0) || math.IsInf(c.SimTime, 1) {
		return fmt.Errorf("cpu: SimTime must be positive and finite, got %v", c.SimTime)
	}
	if !(c.Warmup >= 0) || math.IsInf(c.Warmup, 1) {
		return fmt.Errorf("cpu: Warmup must be non-negative and finite, got %v", c.Warmup)
	}
	return nil
}

// Result reports one simulation run.
type Result struct {
	// Fractions is the measured share of time per power state.
	Fractions energy.Fractions
	// JobsArrived and JobsServed count jobs during the measured period.
	JobsArrived, JobsServed uint64
	// MeanJobs is the time-averaged number of jobs in the system.
	MeanJobs float64
	// MeanLatency is the mean sojourn time of jobs completed during the
	// measured period.
	MeanLatency float64
	// MaxQueue is the largest number of jobs simultaneously in the system.
	MaxQueue int
	// PowerCycles counts standby -> power-up transitions.
	PowerCycles uint64
}

// EnergyJoules applies equation 25 over the measured horizon.
func (r *Result) EnergyJoules(p energy.PowerModel, seconds float64) float64 {
	return p.EnergyJoules(r.Fractions, seconds)
}

// event is a pending event, or a queued job as its arrival event. Events
// dispatch in (t, seq) order, seq numbering schedules in call order;
// customer is an arrival's closed-workload customer (-1 when open).
type event struct {
	t        float64
	seq      uint64
	customer int
}

func (e event) before(f event) bool { return e.t < f.t || (e.t == f.t && e.seq < f.seq) }

// unarmed fills an empty slot: it comes after every finite horizon.
var unarmed = event{t: math.Inf(1)}

// ctxCheckStride is how many dispatched events pass between context polls.
const ctxCheckStride = 1024

// sim is the run state.
type sim struct {
	cfg   Config
	rng   *xrand.Rand
	now   float64
	seq   uint64 // next schedule sequence number
	state energy.State
	trace *traceCollector
	err   error // an invalid sampled delay; ends the run

	// completion ends the current power-up (state PowerUp) or service
	// (state Active); pdt is the power-down timer (state Idle). Both are
	// unarmed otherwise.
	completion, pdt event
	// arrivals is a binary min-heap of the pending arrivals.
	arrivals []event
	// queue[head:] is the FIFO job queue.
	queue []event
	head  int

	lastT   float64
	fracAcc [energy.NumStates]float64
	// warmupQueueIntegral snapshots the queue-length integral at the
	// warmup boundary so MeanJobs covers only the measured window.
	warmupQueueIntegral float64
	queueAcc            stats.TimeWeighted
	latency             stats.Summary
	arrived             uint64
	served              uint64
	maxQueue            int
	cycles              uint64

	// Inline buffers: a longer backlog or a closed population grows them.
	queueInline [16]event
	arrInline   [1]event
}

// Run executes one simulation and returns the measured result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the event loop polls the
// context every 1024 dispatched events and a cancelled context aborts the
// run mid-simulation with ctx.Err(). A Source or Distribution that draws a
// negative or non-finite delay (other than a Source's +Inf, which ends the
// arrivals) fails the run with an error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runInternal(ctx, cfg, nil)
}

// runInternal is the shared body of Run and RunWithTrace; trace may be nil.
func runInternal(ctx context.Context, cfg Config, trace *traceCollector) (*Result, error) {
	s := &sim{
		cfg:   cfg,
		rng:   xrand.NewStream(cfg.Seed, 0),
		state: energy.Standby,
		trace: trace,
		// Slots start unarmed.
		completion: unarmed,
		pdt:        unarmed,
	}
	s.queue = s.queueInline[:0]
	s.arrivals = s.arrInline[:0]
	s.queueAcc.Start(0, 0)
	if trace != nil {
		trace.onState(0, s.state)
	}

	if cfg.Closed != nil {
		for c := 0; c < cfg.Closed.Customers; c++ {
			s.pushArrival(cfg.Closed.Think.Sample(s.rng), c, "think time")
		}
	} else {
		s.scheduleNextArrival()
	}

	horizon := cfg.Warmup + cfg.SimTime
	if err := s.run(ctx, horizon); err != nil {
		return nil, err
	}
	s.integrateTo(horizon)
	s.queueAcc.Advance(horizon)

	res := &Result{
		JobsArrived: s.arrived,
		JobsServed:  s.served,
		MeanLatency: s.latency.Mean(),
		MaxQueue:    s.maxQueue,
		PowerCycles: s.cycles,
	}
	for i := range s.fracAcc {
		res.Fractions[i] = s.fracAcc[i] / cfg.SimTime
	}
	// Queue integral over the measured window only.
	res.MeanJobs = (s.queueAcc.Integral(horizon) - s.warmupQueueIntegral) / cfg.SimTime
	return res, nil
}

// run dispatches pending events in (time, schedule sequence) order until
// none is left at or before the horizon.
func (s *sim) run(ctx context.Context, horizon float64) error {
	const complete, powerDown, arrive = 0, 1, 2
	for countdown := ctxCheckStride; s.err == nil; {
		if countdown--; countdown <= 0 && ctx != nil {
			countdown = ctxCheckStride
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		next, kind := s.completion, complete
		if s.pdt.before(next) {
			next, kind = s.pdt, powerDown
		}
		if len(s.arrivals) > 0 && s.arrivals[0].before(next) {
			next, kind = s.arrivals[0], arrive
		}
		if next.t > horizon {
			return nil
		}
		s.now = next.t
		switch kind {
		case complete:
			// The state tells which completion it is: a power-up
			// completes only in PowerUp and a service only in Active.
			s.completion = unarmed
			if s.state == energy.PowerUp {
				s.powerUpDone()
			} else {
				s.depart()
			}
		case powerDown:
			s.pdt = unarmed
			s.setState(energy.Standby)
		case arrive:
			s.arrive(s.popArrival().customer)
		}
	}
	return s.err
}

// schedule returns the event delay from now, taking the next sequence
// number. A user-supplied Source or Distribution that drew a negative or
// non-finite delay fails the run instead, and the event stays unarmed.
func (s *sim) schedule(delay float64, customer int, what string) (event, bool) {
	e := event{t: s.now + delay, seq: s.seq, customer: customer}
	if !(delay >= 0) || math.IsInf(e.t, 1) {
		if s.err == nil {
			s.err = fmt.Errorf("cpu: %s drew invalid delay %v at t=%v", what, delay, s.now)
		}
		return unarmed, false
	}
	s.seq++
	return e, true
}

// pushArrival schedules an arrival delay from now.
func (s *sim) pushArrival(delay float64, customer int, what string) {
	e, ok := s.schedule(delay, customer, what)
	if !ok {
		return
	}
	h := append(s.arrivals, e)
	for i := len(h) - 1; i > 0 && h[i].before(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	s.arrivals = h
}

// popArrival removes and returns the earliest arrival.
func (s *sim) popArrival() event {
	h, n := s.arrivals, len(s.arrivals)-1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && h[c].before(h[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.arrivals = h
	return top
}

// warmupQueueIntegral is captured when the clock first passes the warmup
// boundary; see integrateTo.
func (s *sim) integrateTo(now float64) {
	from := s.lastT
	if from < s.cfg.Warmup {
		from = s.cfg.Warmup
	}
	if now > from {
		s.fracAcc[s.state] += now - from
	}
	if s.lastT < s.cfg.Warmup && now >= s.cfg.Warmup {
		s.warmupQueueIntegral = s.queueAcc.Integral(s.cfg.Warmup)
	}
	s.lastT = now
}

// setState accumulates elapsed time in the old state and switches.
func (s *sim) setState(ns energy.State) {
	s.integrateTo(s.now)
	s.state = ns
	if s.trace != nil {
		s.trace.onState(s.now, ns)
	}
}

func (s *sim) setQueueLen() {
	n := len(s.queue) - s.head
	s.queueAcc.Set(s.now, float64(n))
	if n > s.maxQueue {
		s.maxQueue = n
	}
}

func (s *sim) scheduleNextArrival() {
	gap := s.cfg.Arrivals.Next(s.rng)
	if math.IsInf(gap, 1) {
		return // the source is exhausted
	}
	s.pushArrival(gap, -1, "arrival source")
}

// arrive handles a job arrival (customer >= 0 for closed workloads).
func (s *sim) arrive(customer int) {
	if s.now >= s.cfg.Warmup {
		s.arrived++
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		// Slide the live jobs down before append would grow the buffer.
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	s.queue = append(s.queue, event{t: s.now, customer: customer})
	s.setQueueLen()
	if customer < 0 {
		s.scheduleNextArrival()
	}
	switch s.state {
	case energy.Standby:
		s.setState(energy.PowerUp)
		s.cycles++
		s.completion, _ = s.schedule(s.cfg.PUD, -1, "power-up delay")
	case energy.Idle:
		// Cancel the pending power-down timer and begin service.
		s.pdt = unarmed
		s.startService()
	case energy.PowerUp, energy.Active:
		// Job waits in the queue.
	}
}

func (s *sim) powerUpDone() {
	if len(s.queue) > s.head {
		s.startService()
		return
	}
	// Unreachable under the paper's semantics (power-up is triggered by an
	// arrival and nothing drains the queue during it), but harmless:
	s.becomeIdle()
}

func (s *sim) startService() {
	s.setState(energy.Active)
	s.completion, _ = s.schedule(s.cfg.Service.Sample(s.rng), -1, "service time")
}

func (s *sim) depart() {
	j := s.queue[s.head]
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	s.setQueueLen()
	if s.now >= s.cfg.Warmup {
		s.served++
		s.latency.Add(s.now - j.t)
	}
	if s.cfg.Closed != nil {
		s.pushArrival(s.cfg.Closed.Think.Sample(s.rng), j.customer, "think time")
	}
	if len(s.queue) > s.head {
		s.startService()
		return
	}
	s.becomeIdle()
}

// becomeIdle applies the power policy when the queue empties. PDT = +Inf
// under PolicyTimeout is the never-sleep limit.
func (s *sim) becomeIdle() {
	switch s.cfg.Policy {
	case PolicyNeverSleep:
		s.setState(energy.Idle)
	case PolicyAlwaysSleep:
		s.setState(energy.Standby)
	default:
		if s.cfg.PDT == 0 {
			s.setState(energy.Standby)
			return
		}
		s.setState(energy.Idle)
		if !math.IsInf(s.cfg.PDT, 1) {
			s.pdt, _ = s.schedule(s.cfg.PDT, -1, "power-down threshold")
		}
	}
}
