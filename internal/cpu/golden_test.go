package cpu

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite run_matrix.golden")

// matrixCase is one configuration of the golden run matrix. newSource
// builds a fresh open-workload source per run, because MMPP and trace
// sources carry state.
type matrixCase struct {
	name      string
	newSource func() workload.Source
	cfg       Config
}

// runMatrix enumerates the golden configurations. Periodic arrivals
// with deterministic service and dyadic delays make events collide at
// exactly equal times (an arrival against a departure, a PDT expiry or a
// power-up completion), so the file also pins the tie-break order.
func runMatrix() []matrixCase {
	var cases []matrixCase
	arrivals := []struct {
		name string
		src  func() workload.Source
	}{
		{"poisson1", func() workload.Source { return workload.NewPoisson(1) }},
		{"periodic1", func() workload.Source { return workload.NewPeriodic(1) }},
	}
	services := []struct {
		name string
		d    dist.Distribution
	}{
		{"exp0.1", dist.ExpMean(0.1)},
		{"det0.25", dist.NewDeterministic(0.25)},
	}
	type power struct {
		name   string
		policy Policy
		pdt    float64
	}
	powers := []power{{"never", PolicyNeverSleep, 0.5}, {"always", PolicyAlwaysSleep, 0.5}}
	for _, pdt := range []float64{0, 0.5, 0.75, 1} {
		powers = append(powers, power{fmt.Sprintf("timeout%g", pdt), PolicyTimeout, pdt})
	}
	for _, a := range arrivals {
		for _, s := range services {
			for _, p := range powers {
				for _, pud := range []float64{0, 0.001, 0.25, 0.3, 10} {
					for seed := uint64(1); seed <= 4; seed++ {
						cases = append(cases, matrixCase{
							name:      fmt.Sprintf("%s/%s/%s/pud%g/seed%d", a.name, s.name, p.name, pud, seed),
							newSource: a.src,
							cfg: Config{
								Service: s.d, Policy: p.policy, PDT: p.pdt, PUD: pud, Seed: seed,
							},
						})
					}
				}
			}
		}
	}
	extra := []matrixCase{
		{"mmpp2", func() workload.Source { return workload.NewMMPP2(4, 0.2, 0.5, 0.5) },
			Config{Service: dist.ExpMean(0.1), PDT: 0.5, PUD: 0.25, Seed: 3}},
		// Three jobs, then +Inf: the source runs dry a few seconds in.
		{"trace-runs-out", func() workload.Source { return workload.NewTrace([]float64{1, 0.25, 0.5}) },
			Config{Service: dist.NewDeterministic(0.5), PDT: 0.25, PUD: 0.125, Seed: 1}},
		{"closed-n1", nil,
			Config{Closed: &workload.Closed{Customers: 1, Think: dist.ExpMean(1)},
				Service: dist.ExpMean(0.1), PDT: 0.5, PUD: 0.25, Seed: 5}},
		{"closed-n5", nil,
			Config{Closed: &workload.Closed{Customers: 5, Think: dist.ExpMean(1)},
				Service: dist.ExpMean(0.1), PDT: 0.5, PUD: 0.25, Seed: 6}},
		// Deterministic think times: all five customers collide at t=1.
		{"closed-n5-det", nil,
			Config{Closed: &workload.Closed{Customers: 5, Think: dist.NewDeterministic(1)},
				Service: dist.NewDeterministic(0.25), PDT: 0.5, PUD: 0.25, Seed: 1}},
	}
	return append(cases, extra...)
}

// formatRun renders a run's Result (every field) and its trace segments at
// full float precision.
func formatRun(b *strings.Builder, label string, res *Result, tr Trace) {
	fmt.Fprintf(b, "%s %+v\n", label, *res)
	for _, seg := range tr {
		fmt.Fprintf(b, "  %v %v %v\n", seg.Start, seg.End, seg.State)
	}
}

// renderRunMatrix runs every matrix case twice: a long untraced run
// (Warmup 50, SimTime 500) and a short traced run whose warmup boundary
// (1.125 s) falls inside a busy period for the periodic arrivals.
func renderRunMatrix(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range runMatrix() {
		long := c.cfg
		long.Warmup, long.SimTime = 50, 500
		short := c.cfg
		short.Warmup, short.SimTime = 1.125, 6
		if c.newSource != nil {
			long.Arrivals = c.newSource()
			short.Arrivals = c.newSource()
		}
		res, err := Run(long)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		formatRun(&b, c.name+" long", res, nil)
		res, tr, err := RunWithTrace(short)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		formatRun(&b, c.name+" traced", res, tr)
	}
	return b.String()
}

// TestRunMatrixGolden pins the simulator bit for bit: every Result field
// and every trace segment of the run matrix must match the golden, which
// was rendered by the general-purpose event kernel the simulator ran on
// before its event loop was specialized. Regenerate with `go test
// ./internal/cpu/ -run RunMatrixGolden -update` only when the random
// stream law changes (xrand.StreamVersion).
func TestRunMatrixGolden(t *testing.T) {
	path := filepath.Join("testdata", "run_matrix.golden")
	got := renderRunMatrix(t)
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
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("run matrix drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("run matrix drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}
