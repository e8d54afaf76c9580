package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sweepd"
)

// statusPoll is the client's status poll interval: fine enough not to
// quantise sweep latency (the CLI's 500 ms would).
const statusPoll = 5 * time.Millisecond

// spanHeader carries the client-side span id to the handler middleware,
// so a request's handler span is the child of its round-trip span.
const spanHeader = "Perfbench-Span"

// endpoints are the protocol endpoints the sweep metrics are broken down
// by.
var endpoints = []string{"submit", "status", "results", "lease", "heartbeat", "lease_results", "cache_get", "cache_put"}

// endpoint classifies a request path ("" for endpoints not broken out).
func endpoint(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/sweeps":
		return "submit"
	case strings.HasPrefix(path, "/v1/sweeps/") && strings.HasSuffix(path, "/results"):
		return "results"
	case strings.HasPrefix(path, "/v1/sweeps/"):
		return "status"
	case path == "/v1/lease":
		return "lease"
	case strings.HasPrefix(path, "/v1/lease/") && strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasPrefix(path, "/v1/lease/") && strings.HasSuffix(path, "/results"):
		return "lease_results"
	case path == sweepd.CachePath+"/get":
		return "cache_get"
	case path == sweepd.CachePath+"/put":
		return "cache_put"
	}
	return ""
}

// sweepSvc is the loopback sweep service: an in-memory coordinator with
// its default LRU result cache behind a loopback listener, one worker
// with the default backoff, and one closed-loop client.
type sweepSvc struct {
	tr       *tracer
	seed     uint64
	perSweep int
	coord    *sweepd.Coordinator
	srv      *http.Server
	served   chan error
	stop     context.CancelFunc
	worked   chan error
	client   *sweepd.Client
	// The client and the worker have HTTP clients of their own, as
	// separate processes would.
	clientHTTP, workerHTTP *http.Client
	// next is the submitted sweep the next operation completes; stats are
	// the coordinator's cache counters when it was submitted.
	next  *submitted
	stats core.CacheStats
	// hits counts the remote cache hits of the traced operations; idle
	// counts lease polls answered "wait" while tracing (the handler
	// goroutines update it).
	hits uint64
	mu   sync.Mutex
	idle int
}

// prepareSweep has no inputs to generate: every sweep's scenarios come
// from the seed as the sweep is submitted. start brings the service up
// and waits until the coordinator answers its readiness probe.
func prepareSweep(p params, tr *tracer) (func() (instance, error), error) {
	return func() (instance, error) {
		s := &sweepSvc{tr: tr, seed: p.seed, perSweep: p.size.sweepScenarios}
		if err := s.start(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, nil
}

func (s *sweepSvc) start() error {
	s.coord = sweepd.NewCoordinator(sweepd.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = sweepd.Handler(s.coord)
	newHTTP := func() *http.Client {
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if s.tr != nil {
			rt = &roundTripper{tr: s.tr, next: rt}
		}
		return &http.Client{Transport: rt}
	}
	s.clientHTTP, s.workerHTTP = newHTTP(), newHTTP()
	if s.tr != nil {
		h = s.middleware(h)
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	if s.client, err = sweepd.NewClient(base, s.clientHTTP); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.worked = make(chan error, 1)
	go func() {
		s.worked <- sweepd.Work(ctx, sweepd.WorkerOptions{Coordinator: base, Name: "w0", Client: s.workerHTTP})
	}()
	if !s.client.Ready() {
		return fmt.Errorf("coordinator at %s is not ready", base)
	}
	return nil
}

// scenarios returns sweep window w: scenarios w·k/2 … w·k/2+k-1 of the
// seed's endless scenario sequence, so each sweep shares half its
// scenarios with the previous one.
func (s *sweepSvc) scenarios(w int) []core.Scenario {
	out := make([]core.Scenario, s.perSweep)
	for j := range out {
		g := w*s.perSweep/2 + j
		rng := rand.New(rand.NewPCG(s.seed, uint64(g)))
		cfg := core.PaperConfig()
		cfg.PDT = 2 * rng.Float64()
		cfg.PUD = rng.Float64()
		out[j] = core.Scenario{Name: "g" + strconv.Itoa(g), Config: cfg}
	}
	return out
}

// spec is the Runner parameterization of every sweep.
func (s *sweepSvc) spec() shard.RunnerSpec {
	base := core.PaperConfig()
	base.Seed = s.seed
	return shard.RunnerSpec{Base: base, Seed: s.seed, Methods: []string{"markov"}, DeriveSeeds: true}
}

// submitted is a sweep the client has submitted.
type submitted struct {
	id    string
	man   *shard.Manifest
	start time.Time
}

// submit submits sweep window w.
func (s *sweepSvc) submit(w int) (*submitted, error) {
	man, err := shard.NewManifest("perfbench", s.spec(), s.scenarios(w), 1)
	if err != nil {
		return nil, err
	}
	sub := &submitted{man: man, start: time.Now()}
	sub.id, err = s.client.Submit(sweepd.SubmitRequest{Manifest: man})
	return sub, err
}

// await waits for a submitted sweep and fetches its results.
func (s *sweepSvc) await(sub *submitted) ([]shard.ResultItem, error) {
	for {
		st, err := s.client.SweepStatus(sub.id)
		if err != nil {
			return nil, err
		}
		if st.State == sweepd.StateFailed {
			return nil, fmt.Errorf("sweep %s failed: %s", sub.id, st.Error)
		}
		if st.State == sweepd.StateDone {
			break
		}
		time.Sleep(statusPoll)
	}
	resp, err := s.client.SweepResults(sub.id)
	if err != nil {
		return nil, err
	}
	if !resp.Complete {
		return nil, fmt.Errorf("sweep %s done but its results are incomplete", sub.id)
	}
	return resp.Results, nil
}

// sweep runs window w to completion.
func (s *sweepSvc) sweep(w int) (*shard.Manifest, []shard.ResultItem, error) {
	sub, err := s.submit(w)
	if err != nil {
		return nil, nil, err
	}
	got, err := s.await(sub)
	return sub.man, got, err
}

// submitNext reads the cache counters and submits window w as the next
// operation's sweep.
func (s *sweepSvc) submitNext(w int) (err error) {
	if s.stats, err = s.coord.Cache().Stats(); err != nil {
		return err
	}
	s.next, err = s.submit(w)
	return err
}

// op completes sweep window i+1, which the operation before submitted, and
// at once submits window i+2, as a closed-loop client with no think time
// does. The checks, and the heap collection between operations, run after
// that submit, while the worker is still in its idle backoff, so they do
// not delay the next sweep. The warm-up first runs window 0 to completion,
// so that window 1, like every later one, finds half its scenarios
// computed.
func (s *sweepSvc) op(i int) (opResult, error) {
	s.tr.setOp(i)
	if s.next == nil { // the warm-up, or the operation after a failed one
		if i == 0 {
			if _, _, err := s.sweep(0); err != nil {
				return opResult{}, fmt.Errorf("priming sweep: %w", err)
			}
		}
		if err := s.submitNext(i + 1); err != nil {
			return opResult{}, err
		}
	}
	cur, before := s.next, s.stats
	s.next = nil
	got, err := s.await(cur)
	secs := time.Since(cur.start).Seconds()
	if err != nil {
		return opResult{}, err
	}
	if err := s.submitNext(i + 2); err != nil {
		return opResult{}, err
	}
	after := s.stats
	if err := s.check(cur.man, got); err != nil {
		return opResult{}, err
	}
	if s.tr.enabled() {
		s.hits += after.Hits - before.Hits
	}
	counts := map[string]float64{
		"sweepd.remote_cache_hits": float64(after.Hits - before.Hits),
		"sweepd.cache_entries_new": float64(after.Entries - before.Entries),
	}
	return opResult{work: float64(s.perSweep), counts: counts, secs: secs}, nil
}

// check compares a sweep's fetched results, byte for byte, with an
// in-process Runner.RunAll over the same RunnerSpec, and requires that no
// lease expired or was requeued.
func (s *sweepSvc) check(man *shard.Manifest, got []shard.ResultItem) error {
	want, err := referenceResults(man)
	if err != nil {
		return err
	}
	if err := sameResults(got, want); err != nil {
		return err
	}
	st := s.coord.Status()
	if st.ExpiredLeases != 0 || st.Requeues != 0 {
		return fmt.Errorf("%d leases expired and %d partitions were requeued", st.ExpiredLeases, st.Requeues)
	}
	return nil
}

// referenceResults evaluates a manifest's scenarios in-process, without
// any result cache.
func referenceResults(man *shard.Manifest) ([]shard.ResultItem, error) {
	r, err := man.Runner.NewRunner(core.WithCache(false))
	if err != nil {
		return nil, err
	}
	res, err := r.RunAll(context.Background(), man.Scenarios())
	if err != nil {
		return nil, err
	}
	rs, err := shard.NewResultSet(0, res)
	if err != nil {
		return nil, err
	}
	return rs.Results, nil
}

// sameResults requires the two result lists to encode to the same bytes.
func sameResults(got, want []shard.ResultItem) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("merged sweep results (%d bytes) differ from the in-process run (%d bytes)", len(a), len(b))
	}
	return nil
}

func (s *sweepSvc) layers(ops int) (map[string]float64, error) {
	m := map[string]float64{}
	n := float64(max(ops, 1))
	handler := map[string][]float64{}
	rtt := map[string][]float64{}
	var bytesMoved float64
	for _, sp := range s.tr.snapshot() {
		ep := strings.TrimPrefix(strings.TrimPrefix(sp.Name, "sweepd.handler."), "sweepd.rtt.")
		switch {
		case strings.HasPrefix(sp.Name, "sweepd.handler."):
			handler[ep] = append(handler[ep], sp.seconds()*1e6)
		case strings.HasPrefix(sp.Name, "sweepd.rtt."):
			rtt[ep] = append(rtt[ep], sp.seconds()*1e6)
			bytesMoved += float64(sp.Bytes)
		}
	}
	for _, ep := range endpoints {
		m["sweepd.handler_us_p50."+ep] = median(handler[ep])
		m["sweepd.handler_us_p99."+ep] = quantile(handler[ep], 0.99)
		m["sweepd.rtt_us_p50."+ep] = median(rtt[ep])
		m["sweepd.rtt_us_p99."+ep] = quantile(rtt[ep], 0.99)
		m["sweepd.requests_per_sweep."+ep] = float64(len(handler[ep])) / n
	}
	s.mu.Lock()
	m["sweepd.idle_polls_per_sweep"] = float64(s.idle) / n
	s.mu.Unlock()
	m["sweepd.bytes_per_scen"] = bytesMoved / (n * float64(s.perSweep))
	if gets := len(handler["cache_get"]); gets > 0 {
		m["core.remote_cache_hit_frac"] = float64(s.hits) / float64(gets)
	}
	st := s.coord.Status()
	m["sweepd.requeues"] = float64(st.Requeues)
	m["sweepd.expiries"] = float64(st.ExpiredLeases)
	return m, nil
}

func (s *sweepSvc) close() {
	if s.stop != nil {
		s.stop()
		<-s.worked
	}
	if s.srv != nil {
		_ = s.srv.Close() // the listener and every connection; nothing to flush
		<-s.served
	}
	for _, c := range []*http.Client{s.clientHTTP, s.workerHTTP} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// middleware times every request the coordinator serves.
func (s *sweepSvc) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpoint(r.Method, r.URL.Path)
		if ep == "" || !s.tr.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := s.tr.begin("sweepd", "sweepd.handler."+ep, parent)
		rec := &recorder{ResponseWriter: w, keep: ep == "lease"}
		next.ServeHTTP(rec, r)
		sp.end()
		if rec.keep && bytes.Contains(rec.body.Bytes(), []byte(`"status":"`+sweepd.LeaseWait+`"`)) {
			s.mu.Lock()
			s.idle++
			s.mu.Unlock()
		}
	})
}

// recorder keeps a copy of a response body when asked to.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

// roundTripper times each request from send until its response body is
// closed, and counts the body bytes both ways.
type roundTripper struct {
	tr   *tracer
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.Method, req.URL.Path)
	if ep == "" || !rt.tr.enabled() {
		return rt.next.RoundTrip(req)
	}
	sp := rt.tr.begin("http", "sweepd.rtt."+ep, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id(), 10))
	if req.ContentLength > 0 {
		sp.addBytes(req.ContentLength)
	}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// timedBody ends its span when the body is closed.
type timedBody struct {
	io.ReadCloser
	sp   *active
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.addBytes(int64(n))
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}
