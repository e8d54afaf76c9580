// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed wall-clock budget, checks every operation's output, and
// prints each metric by name and unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds the binary and
// passes its arguments on):
//
//	bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25
//
// Workloads: paper-regen, field-steady, field-dieoff and sweep-loopback
// (see workloads below); "all" runs them in turn. Every input is generated
// from --seed. With --trace 0 the metrics are the end-to-end ones,
// measured with no tracing hook installed. With --trace 1 the run first
// times an untraced pass, then a traced pass whose spans, recorded around
// the calls into each layer's public functions from this package's own
// files, give the per-layer metrics; the spans are written to --trace-out
// at exit.
//
// The program exits non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// params is one benchmark invocation.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
	traceOut string
}

// size holds every input dimension of the workloads, so the self-tests
// can run each workload at toy scale through the same code.
type size struct {
	// paper-regen: measured horizon and replications (Table 2 settings).
	regenSimTime float64
	regenReps    int
	// field-*: grid side (side² nodes), horizon, die-off battery capacity.
	fieldSide    int
	fieldHorizon float64
	dieoffmAh    float64
	// sweep-loopback: scenarios per sweep.
	sweepScenarios int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

// fullSize is the benchmark proper.
var fullSize = size{
	regenSimTime: 1000, regenReps: 10,
	fieldSide: 100, fieldHorizon: 1000, dieoffmAh: 1.5,
	sweepScenarios: 200,
	setupReps:      5,
}

// workload is one benchmark input set. prepare generates the seeded
// inputs and returns start, which makes the program's set-up calls on them
// and returns an instance ready for its first operation; setup_s times
// start alone, so it measures the program, not the input generator. tr is
// nil when tracing is off, and then no hook is installed.
type workload struct {
	name string
	// unit names what work_per_s counts.
	unit    string
	prepare func(p params, tr *tracer) (start func() (instance, error), err error)
	// tailQ is the quantile op_ms_tail reports: about the highest that
	// leaves ten timed operations above it in one run at the measured
	// operation times (the report states how many it did leave).
	tailQ float64
	// aliases are the workload's own names for end-to-end metrics.
	aliases []alias
}

// alias reports an end-to-end metric, scaled, under a workload-specific
// name: every workload reports the same end-to-end metric set, and these
// say what each one means there.
type alias struct {
	name, of string
	scale    float64
	unit     string
}

// instance is a set-up workload.
type instance interface {
	// op runs operation i (0 is the untimed warm-up) and checks its
	// output.
	op(i int) (opResult, error)
	// layers returns the per-layer metrics of the traced operations
	// (ops of them), measuring any extra single-layer probes itself.
	layers(ops int) (map[string]float64, error)
	close()
}

var workloads = []workload{
	// About 100 regenerations in 25 s.
	{name: "paper-regen", unit: "regenerations", prepare: prepareRegen, tailQ: 0.9, aliases: []alias{
		{"regen_s", "op_ms_p50", 1e-3, "s"}, {"regen_s_p90", "op_ms_tail", 1e-3, "s"}}},
	// A field run takes about 0.9 s (steady) or 1.2 s (die-off), so 25 s
	// time only about 28 or 20 of them: the tail is the 60th percentile,
	// and for the die-off the median.
	{name: "field-steady", unit: "node-seconds", prepare: prepareFieldSteady, tailQ: 0.6, aliases: fieldAliases},
	{name: "field-dieoff", unit: "node-seconds", prepare: prepareFieldDieoff, tailQ: 0.5, aliases: fieldAliases},
	// About 150 sweeps in 25 s.
	{name: "sweep-loopback", unit: "scenarios", prepare: prepareSweep, tailQ: 0.9, aliases: []alias{
		{"scen_per_s", "work_per_s", 1, "1/s"}, {"sweep_ms_p50", "op_ms_p50", 1, "ms"}, {"sweep_ms_p90", "op_ms_tail", 1, "ms"}}},
}

var fieldAliases = []alias{{"node_s_per_s", "work_per_s", 1, "1/s"}, {"field_run_s", "op_ms_p50", 1e-3, "s"}}

// opResult is one operation's outcome.
type opResult struct {
	// work is the work done, in the workload's unit.
	work float64
	// counts are exact counts, which must repeat on every operation.
	counts map[string]float64
	// secs, when positive, is the operation's own timing, excluding
	// checks; otherwise the whole op call is timed.
	secs float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Counts are the exact counts every operation repeated.
	Counts map[string]float64 `json:"-"`
}

func main() {
	p, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := []string{p.workload}
	if p.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	correct := true
	for _, name := range names {
		p.workload = name
		res, err := run(p, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(mustJSON(res))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (params, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		name     = fs.String("workload", "", "workload: paper-regen, field-steady, field-dieoff, sweep-loopback, or all of them in turn")
		seed     = fs.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = fs.Float64("seconds", 10, "measured wall-clock seconds")
		trace    = fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
		traceOut = fs.String("trace-out", "", "span file of a traced run (default .bench_build/traces/trace-<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return params{}, err
	}
	p := params{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize, traceOut: *traceOut}
	if _, ok := findWorkload(p.workload); !ok && p.workload != "all" {
		return params{}, fmt.Errorf("unknown workload %q", p.workload)
	}
	if *trace != 0 && *trace != 1 {
		return params{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(p.seconds > 0) {
		return params{}, fmt.Errorf("--seconds must be positive, got %v", p.seconds)
	}
	return p, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pass is the outcome of a run of timed operations.
type pass struct {
	durs      []float64 // seconds per successful operation
	work      float64   // work units of the successful operations
	attempted int
	failed    int
	// rssMB holds the peak resident set of each of the first rssOps
	// successful operations.
	rssMB []float64
	// runtime sums the successful operations' allocation and collection
	// counts.
	runtime runtimeStats
}

// rssOps fixes the work peak_rss_mb covers: the sweep coordinator keeps
// every finished sweep, so later operations would otherwise report more
// memory the faster the service runs.
const rssOps = 10

// run executes one invocation and writes the human-readable report to out.
func run(p params, out io.Writer) (*result, error) {
	w, ok := findWorkload(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	mc := machineContext()
	fmt.Fprintf(out, "machine %s\n", mustJSON(mc))
	// Memory an earlier workload of the same process freed goes back to
	// the system, so it does not count towards this one's peak.
	debug.FreeOSMemory()

	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	start, err := w.prepare(p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	setupSecs := make([]float64, 0, p.size.setupReps)
	var inst instance
	for r := 0; r < p.size.setupReps || sum(setupSecs) < minSetupSecs; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = start(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer inst.close()

	// The warm-up operation lets lazy set-up finish and provides the
	// exact counts every later operation must repeat.
	attempted, failed := 1, 0
	warm, err := inst.op(0)
	refCounts := warm.counts
	if err != nil {
		failed++
		fmt.Fprintf(out, "check failed: op 0: %v\n", err)
	}
	next := 1
	budget := time.Duration(p.seconds * float64(time.Second))
	if p.trace {
		budget /= 2
	}
	plain := timedPass(inst, &next, budget, refCounts, out)
	attempted += plain.attempted
	failed += plain.failed

	res := &result{Metrics: map[string]metric{}}
	tracedOps := 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !p.trace {
		put("setup_s", median(setupSecs), "s")
		put("op_ms_p50", 1000*median(plain.durs), "ms")
		put("op_ms_tail", 1000*quantile(plain.durs, w.tailQ), "ms")
		put("work_per_s", plain.work/sum(plain.durs), "1/s")
		put("peak_rss_mb", median(plain.rssMB), "MB")
	} else {
		tr.enable(true)
		traced := timedPass(inst, &next, budget, refCounts, out)
		tr.enable(false)
		tracedOps = len(traced.durs)
		attempted += traced.attempted
		failed += traced.failed
		layers, err := inst.layers(len(traced.durs))
		if err != nil {
			failed++
			fmt.Fprintf(out, "check failed: layer probes: %v\n", err)
		}
		// The exact counts are per-layer metrics too; the probes add the
		// rest.
		for k, v := range refCounts {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
		for _, d := range perLayerMetrics {
			put(d.name, layers[d.name], d.unit)
		}
		nOps := float64(max(len(plain.durs), 1))
		put("go.alloc_mb", plain.runtime.allocBytes/nOps/(1<<20), "MB")
		put("go.gc_cycles", plain.runtime.gcCycles/nOps, "count")
		for layer, s := range tr.selfTimes() {
			put("self_s."+layer, s/float64(max(len(traced.durs), 1)), "s")
		}
		put("trace.overhead_frac", median(traced.durs)/median(plain.durs)-1, "frac")
		path := p.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-%d.json", p.workload, p.seed))
		}
		if err := tr.write(path, mc, p, res.Metrics); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace %d spans written to %s\n", tr.count(), path)
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	res.Counts = refCounts
	fmt.Fprintf(out, "counts %s\n", mustJSON(refCounts))

	fmt.Fprintf(out, "workload %s seed %d: %d operations attempted, %d failed; work unit %s\n",
		w.name, p.seed, attempted, failed, w.unit)
	fmt.Fprintf(out, "metric %-34s %14.6g frac (failed / attempted)\n", "fail_frac", float64(failed)/float64(attempted))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, a := range w.aliases {
		if m, ok := res.Metrics[a.of]; ok {
			fmt.Fprintf(out, "metric %-34s %14.6g %s (%s)\n", a.name, m.Value*a.scale, a.unit, a.of)
		}
	}
	fmt.Fprintf(out, "samples: %d untraced and %d traced operations, %d set-ups; op_ms_tail is p%g, with %d untraced operations above it\n",
		len(plain.durs), tracedOps, len(setupSecs), 100*w.tailQ, above(plain.durs, w.tailQ))
	return res, nil
}

// minSetupSecs is the least time set-up repetitions take together, so a
// set-up of well under a millisecond is still timed many times.
const minSetupSecs = 0.1

// minOps is the fewest timed operations a pass runs, whatever its budget.
const minOps = 3

// timedPass runs operations until the budget is spent, timing each and
// checking its exact counts against ref.
func timedPass(inst instance, next *int, budget time.Duration, ref map[string]float64, out io.Writer) pass {
	var ps pass
	start := time.Now()
	for ps.attempted < minOps || time.Since(start) < budget {
		i := *next
		*next++
		ps.attempted++
		// Every operation starts from a collected heap and a reset peak
		// resident set, so neither carries over from the one before.
		runtime.GC()
		resetPeakRSS()
		rt0 := readRuntime()
		t0 := time.Now()
		r, err := inst.op(i)
		d := time.Since(t0).Seconds()
		rt1 := readRuntime()
		if r.secs > 0 {
			d = r.secs
		}
		if err == nil {
			err = sameCounts(ref, r.counts)
		}
		if err != nil {
			ps.failed++
			fmt.Fprintf(out, "check failed: op %d: %v\n", i, err)
			continue
		}
		ps.durs = append(ps.durs, d)
		ps.work += r.work
		ps.runtime.allocBytes += rt1.allocBytes - rt0.allocBytes
		ps.runtime.gcCycles += rt1.gcCycles - rt0.gcCycles
		if len(ps.rssMB) < rssOps {
			ps.rssMB = append(ps.rssMB, peakRSSMB())
		}
	}
	return ps
}

// sameCounts reports any exact count that moved between operations.
func sameCounts(ref, got map[string]float64) error {
	var bad []string
	for k, v := range ref {
		if got[k] != v {
			bad = append(bad, fmt.Sprintf("%s %v, first operation %v", k, got[k], v))
		}
	}
	if len(ref) != len(got) {
		bad = append(bad, fmt.Sprintf("%d counts, first operation %d", len(got), len(ref)))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("exact counts moved: %s", strings.Join(bad, "; "))
	}
	return nil
}

// runtimeStats is a cumulative runtime/metrics reading.
type runtimeStats struct{ allocBytes, gcCycles float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var r runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = float64(s[1].Value.Uint64())
	}
	return r
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count at
// the current resident set. Where that is not possible the peak stays
// cumulative.
func resetPeakRSS() {
	// The write fails only without a Linux /proc; the peak then covers
	// the whole run.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// machine is the context recorded with every result, so numbers from
// different boxes are never compared by accident.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	PGO        string `json:"pgo_profile"`
}

func machineContext() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		PGO:        "off",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				m.PGO = filepath.Base(s.Value)
			}
		}
	}
	return m
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled here
	}
	return string(b)
}
