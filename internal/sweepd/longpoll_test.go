package sweepd

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// wakeBound is how soon a held poll must answer after the event that
// changes its answer.
const wakeBound = 50 * time.Millisecond

// serveTest serves c on loopback and returns a client for it.
func serveTest(t *testing.T, c *Coordinator) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(srv.Close)
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return srv, client
}

// waitHeld returns once a lease poll is parked on c's wake channel. It
// relies on c never having held a poll before: the channel exists only
// from a poll's first hold until the next kick.
func waitHeld(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		held := c.kick != nil
		c.mu.Unlock()
		if held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease poll never held")
		}
		time.Sleep(time.Millisecond)
	}
}

type pollResult struct {
	resp LeaseResponse
	err  error
	at   time.Time
}

// startHeldPoll sends a 5 s long poll for worker and returns once the
// coordinator holds it.
func startHeldPoll(t *testing.T, c *Coordinator, client *Client, worker string) <-chan pollResult {
	t.Helper()
	out := make(chan pollResult, 1)
	go func() {
		resp, err := client.Lease(context.Background(), worker, "", 5*time.Second)
		out <- pollResult{resp, err, time.Now()}
	}()
	waitHeld(t, c)
	return out
}

// submitTest admits a sweep of n scenarios in the given partitions.
func submitTest(t *testing.T, c *Coordinator, n, partitions int) string {
	t.Helper()
	spec := testSpec()
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, testScenarios(spec, n)), Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// TestHeldPollWakes: a poll held for 5 s answers within wakeBound of each
// event that can change its answer.
func TestHeldPollWakes(t *testing.T) {
	cases := []struct {
		name string
		want string
		// setup builds the coordinator and returns the event to fire
		// while a poll is held.
		setup func(t *testing.T) (*Coordinator, func())
	}{
		{"submit", LeaseWork, func(t *testing.T) (*Coordinator, func()) {
			c := NewCoordinator(Options{})
			return c, func() { submitTest(t, c, 2, 1) }
		}},
		{"fail", LeaseWork, func(t *testing.T) (*Coordinator, func()) {
			c := NewCoordinator(Options{})
			submitTest(t, c, 2, 1)
			l := leaseWork(t, c, "w1")
			return c, func() {
				if err := c.Fail(l.LeaseID, FailRequest{Version: ProtocolVersion, Error: "boom"}); err != nil {
					t.Error(err)
				}
			}
		}},
		{"partial results", LeaseWork, func(t *testing.T) (*Coordinator, func()) {
			c := NewCoordinator(Options{})
			submitTest(t, c, 3, 1)
			l := leaseWork(t, c, "w1")
			return c, func() {
				sub := ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l.Shard.Index, l.Shard.Items[:1])}
				if err := c.Results(l.LeaseID, sub); err != nil {
					t.Error(err)
				}
			}
		}},
		{"costs predict a straggler", LeaseWork, func(t *testing.T) (*Coordinator, func()) {
			c := NewCoordinator(Options{})
			submitTest(t, c, 4, 2)
			l1 := leaseWork(t, c, "w1")
			leaseWork(t, c, "w1") // the straggler-to-be
			ids, err := core.EstimatorIDs(testSpec().Methods...)
			if err != nil {
				t.Fatal(err)
			}
			return c, func() {
				sub := ResultSubmission{
					Version: ProtocolVersion,
					Results: fakeResults(l1.Shard.Index, l1.Shard.Items),
					Costs:   core.CostTable{ids[0]: {PerWorkSeconds: 1e3, AbsSeconds: 1e9}},
				}
				if err := c.Results(l1.LeaseID, sub); err != nil {
					t.Error(err)
				}
			}
		}},
		{"recover", LeaseWork, func(t *testing.T) (*Coordinator, func()) {
			dir := t.TempDir()
			first, err := Open(Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Recover(); err != nil {
				t.Fatal(err)
			}
			submitTest(t, first, 2, 1)
			first.Shutdown(0)
			c, err := Open(Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Shutdown(0) })
			return c, func() {
				if err := c.Recover(); err != nil {
					t.Error(err)
				}
			}
		}},
		{"drain", LeaseBye, func(t *testing.T) (*Coordinator, func()) {
			c := NewCoordinator(Options{})
			return c, c.Drain
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, event := tc.setup(t)
			_, client := serveTest(t, c)
			res := startHeldPoll(t, c, client, "w2")
			fired := time.Now()
			event()
			r := <-res
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.resp.Status != tc.want {
				t.Fatalf("held poll answered %+v, want %s", r.resp, tc.want)
			}
			if late := r.at.Sub(fired); late > wakeBound {
				t.Fatalf("held poll answered %v after the event, want within %v", late, wakeBound)
			}
		})
	}
}

// TestHeldPollRacingSubmit fires each submit without waiting for the
// poll to be held, so some land while the poll is between evaluating its
// answer and parking: a wakeup lost there holds the poll its full 5 s.
func TestHeldPollRacingSubmit(t *testing.T) {
	c := NewCoordinator(Options{})
	_, client := serveTest(t, c)
	for i := 0; i < 50; i++ {
		res := make(chan pollResult, 1)
		go func() {
			resp, err := client.Lease(context.Background(), "w", "", 5*time.Second)
			res <- pollResult{resp, err, time.Now()}
		}()
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		submitTest(t, c, 1, 1)
		fired := time.Now()
		r := <-res
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.Status != LeaseWork {
			t.Fatalf("poll %d answered %+v, want work", i, r.resp)
		}
		if late := r.at.Sub(fired); late > wakeBound {
			t.Fatalf("poll %d answered %v after the submit, want within %v", i, late, wakeBound)
		}
		sub := ResultSubmission{Version: ProtocolVersion, Results: fakeResults(r.resp.Shard.Index, r.resp.Shard.Items)}
		if err := c.Results(r.resp.LeaseID, sub); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeldPollReapsAtLeaseDeadline: a held poll wakes itself at the
// earliest lease deadline, so an expired lease is reaped and re-leased
// without any other request arriving.
func TestHeldPollReapsAtLeaseDeadline(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: 150 * time.Millisecond})
	submitTest(t, c, 2, 1)
	leaseWork(t, c, "w1") // w1 goes silent
	deadline := c.Status().Leases[0].Deadline
	_, client := serveTest(t, c)
	r := <-startHeldPoll(t, c, client, "w2")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.Status != LeaseWork {
		t.Fatalf("held poll answered %+v, want the expired partition", r.resp)
	}
	if late := r.at.Sub(deadline); late < 0 || late > wakeBound {
		t.Fatalf("held poll answered %v after the lease deadline, want within (0, %v]", late, wakeBound)
	}
	if st := c.Status(); st.ExpiredLeases != 1 {
		t.Fatalf("expiry not recorded: %+v", st)
	}
}

// TestHeldPollTimesOut: with nothing to wake it, a held poll answers
// LeaseWait at the end of its hold, and a poll without a hold answers at
// once.
func TestHeldPollTimesOut(t *testing.T) {
	c := NewCoordinator(Options{})
	_, client := serveTest(t, c)
	const hold = 100 * time.Millisecond
	for _, wait := range []time.Duration{0, hold} {
		start := time.Now()
		resp, err := client.Lease(context.Background(), "w", "", wait)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != LeaseWait {
			t.Fatalf("idle poll answered %+v, want wait", resp)
		}
		if took < wait || took > wait+wakeBound {
			t.Fatalf("poll with a %v hold answered after %v", wait, took)
		}
	}
}

// TestLongPollHoldClamp: the server bounds whatever hold a client asks
// for.
func TestLongPollHoldClamp(t *testing.T) {
	maxMS := DefaultBackoff.Max.Milliseconds()
	for _, tc := range []struct {
		waitMS int64
		want   time.Duration
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, time.Millisecond},
		{100, 100 * time.Millisecond},
		{maxMS - 1, DefaultBackoff.Max - time.Millisecond},
		{maxMS, DefaultBackoff.Max},
		{maxMS + 1, DefaultBackoff.Max},
		{math.MaxInt64, DefaultBackoff.Max},
	} {
		if got := holdFor(tc.waitMS); got != tc.want {
			t.Errorf("holdFor(%d) = %v, want %v", tc.waitMS, got, tc.want)
		}
	}

	// On the wire: a negative hold answers at once, and a hold that
	// overflows int64 is a bad request.
	srv, _ := serveTest(t, NewCoordinator(Options{}))
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"version":1,"worker":"w","wait_ms":-5000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || time.Since(start) > wakeBound {
		t.Fatalf("negative hold: status %d after %v", resp.StatusCode, time.Since(start))
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"version":1,"worker":"w","wait_ms":1e30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing hold: status %d, want 400", resp.StatusCode)
	}
}

// heldWorker starts a worker whose idle poll holds for 5 s and returns
// once the coordinator holds it; the channel yields Work's error.
func heldWorker(t *testing.T, ctx context.Context, c *Coordinator, srv *httptest.Server, drain <-chan struct{}) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- Work(ctx, WorkerOptions{
			Coordinator: srv.URL,
			Client:      srv.Client(),
			Backoff:     Backoff{Base: 5 * time.Second, Max: 5 * time.Second, Factor: 2},
			Drain:       drain,
		})
	}()
	waitHeld(t, c)
	return done
}

// TestHeldPollWorkerCancel: cancelling a worker's context abandons its
// held poll instead of waiting it out.
func TestHeldPollWorkerCancel(t *testing.T) {
	c := NewCoordinator(Options{})
	srv, _ := serveTest(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := heldWorker(t, ctx, c, srv, nil)
	start := time.Now()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled worker errored: %v", err)
	}
	if took := time.Since(start); took > wakeBound {
		t.Fatalf("worker returned %v after cancellation, want within %v", took, wakeBound)
	}
}

// TestHeldPollWorkerDrain: closing Drain during a held poll ends the
// worker at once, and work queued afterwards is not leased to it.
func TestHeldPollWorkerDrain(t *testing.T) {
	c := NewCoordinator(Options{})
	srv, _ := serveTest(t, c)
	drain := make(chan struct{})
	done := heldWorker(t, context.Background(), c, srv, drain)
	start := time.Now()
	close(drain)
	if err := <-done; err != nil {
		t.Fatalf("drained worker errored: %v", err)
	}
	if took := time.Since(start); took > wakeBound {
		t.Fatalf("worker returned %v after drain, want within %v", took, wakeBound)
	}
	// The coordinator lets go of the abandoned poll too: Close waits for
	// its handler, which would otherwise sit out the 5 s hold.
	start = time.Now()
	srv.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("abandoned poll's handler returned %v after the worker left", took)
	}
	id := submitTest(t, c, 2, 1)
	if st := c.Status(); len(st.Leases) != 0 {
		t.Fatalf("drained worker's poll took a lease: %+v", st.Leases)
	}
	if sw, err := c.SweepStatus(id); err != nil || sw.Queued != 1 {
		t.Fatalf("sweep after drain = (%+v, %v), want its partition queued", sw, err)
	}
}

// grantThenDrain is an http.RoundTripper that lets the first lease poll
// reach the coordinator and be granted work, then closes drain and drops
// the answer, exactly as a drain that cancels the poll while the grant is
// on the wire would: it waits for the poll's context to end and returns
// its error instead of the response.
type grantThenDrain struct {
	base  http.RoundTripper
	drain chan struct{}
	once  sync.Once
}

func (g *grantThenDrain) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := g.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/lease" {
		return resp, err
	}
	dropped := false
	g.once.Do(func() {
		resp.Body.Close()
		close(g.drain)
		<-req.Context().Done()
		dropped = true
	})
	if dropped {
		return nil, req.Context().Err()
	}
	return resp, nil
}

// TestHeldPollGrantVersusDrain: a drain that cancels a poll the
// coordinator already answered with work must not orphan that lease. The
// worker abandons the cut-short poll, the coordinator fails the lease
// back, and when Work returns nothing is leased in the worker's name and
// the partition is queued again.
func TestHeldPollGrantVersusDrain(t *testing.T) {
	c := NewCoordinator(Options{})
	srv, _ := serveTest(t, c)
	id := submitTest(t, c, 2, 1)
	drain := make(chan struct{})
	transport := &grantThenDrain{base: srv.Client().Transport, drain: drain}
	err := Work(context.Background(), WorkerOptions{
		Coordinator: srv.URL,
		Name:        "first-shift",
		Client:      &http.Client{Transport: transport},
		Backoff:     Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1},
		Drain:       drain,
	})
	if err != nil {
		t.Fatalf("drained worker errored: %v", err)
	}
	select {
	case <-drain:
	default:
		t.Fatal("the poll was never granted work")
	}
	if st := c.Status(); len(st.Leases) != 0 {
		t.Fatalf("drained worker left leases outstanding: %+v", st.Leases)
	}
	sw, err := c.SweepStatus(id)
	if err != nil || sw.Leased != 0 || sw.Queued != 1 {
		t.Fatalf("sweep after drain = (%+v, %v), want its partition queued again", sw, err)
	}
}

// TestAbandonedPollIsNeverGranted: a poll abandoned before the
// coordinator sees it (still in flight) is answered LeaseBye, not work,
// while other polls are served as usual.
func TestAbandonedPollIsNeverGranted(t *testing.T) {
	c := NewCoordinator(Options{})
	submitTest(t, c, 2, 1)
	if err := c.AbandonPoll(AbandonRequest{Version: ProtocolVersion, PollID: "w/1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w", PollID: "w/1"})
	if err != nil || resp.Status != LeaseBye {
		t.Fatalf("abandoned poll answered (%+v, %v), want LeaseBye", resp, err)
	}
	resp, err = c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w", PollID: "w/2"})
	if err != nil || resp.Status != LeaseWork {
		t.Fatalf("fresh poll answered (%+v, %v), want work", resp, err)
	}
	for _, bad := range []AbandonRequest{{Version: ProtocolVersion}, {Version: ProtocolVersion + 1, PollID: "x"}} {
		if err := c.AbandonPoll(bad); err == nil {
			t.Errorf("AbandonPoll(%+v) accepted", bad)
		}
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodyRejected: a request body over maxBodyBytes answers 413
// rather than being truncated into a decode error.
func TestOversizedBodyRejected(t *testing.T) {
	srv, _ := serveTest(t, NewCoordinator(Options{}))
	body := io.LimitReader(spaces{}, maxBodyBytes+1<<10)
	resp, err := srv.Client().Post(srv.URL+"/v1/sweeps", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}
