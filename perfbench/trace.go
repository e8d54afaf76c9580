package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark operation
// share Op; Parent links a span to the span that caused it (0: none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload moved by an HTTP span (request plus response
	// body).
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// maxSpans bounds the in-memory span buffer; later spans are counted but
// dropped.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// tracing switched off: every method is a no-op.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	op      atomic.Int64
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off (hooks stay installed).
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setOp marks the operation later spans belong to.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op.Store(int64(i))
	}
}

// active is an open span; the zero value (from a disabled tracer) records
// nothing.
type active struct {
	t     *tracer
	s     span
	bytes atomic.Int64
}

// begin opens a span; end closes and records it.
func (t *tracer) begin(layer, name string, parent uint64) *active {
	if !t.enabled() {
		return nil
	}
	return &active{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Op: t.op.Load(),
		Layer: layer, Name: name, Start: time.Since(t.t0).Nanoseconds(),
	}}
}

// id is the span's identifier (0 for a nil span).
func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) addBytes(n int64) {
	if a != nil {
		a.bytes.Add(n)
	}
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = time.Since(a.t.t0).Nanoseconds()
	a.s.Bytes = a.bytes.Load()
	a.t.mu.Lock()
	if len(a.t.spans) < maxSpans {
		a.t.spans = append(a.t.spans, a.s)
	} else {
		a.t.dropped++
	}
	a.t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations in seconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// total returns the summed seconds of the spans named name.
func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// selfTimes returns each layer's self time in seconds: its spans'
// durations minus the part of each span's interval its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.snapshot()
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, layer := range traceLayers {
		out[layer] = 0
	}
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// unionWithin returns the length of the union of the intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(math.MinInt64), int64(math.MinInt64)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and the run's context as one JSON document.
func (t *tracer) write(path string, mc machine, p params, ms map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	doc := struct {
		Machine  machine           `json:"machine"`
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Dropped  int               `json:"dropped_spans"`
		Spans    []span            `json:"spans"`
	}{mc, p.workload, p.seed, ms, dropped, t.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// traceLayers are the layers spans are attributed to: the repository's
// modules whose public functions the workloads call, plus "http" for the
// loopback transport seen by clients. The petri and cpu engines run
// inside those calls; their costs come from the single-layer probes.
var traceLayers = []string{"experiments", "core", "field", "sweepd", "http"}

// median returns the middle value (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// above counts the samples greater than their q-quantile.
func above(xs []float64, q float64) int {
	t, n := quantile(xs, q), 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
