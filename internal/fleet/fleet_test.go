package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soteria/internal/obs"
)

// stubReplica fakes one `soteria -serve` process: /healthz gated by a
// flag, and /analyze with a configurable service delay that reports
// which stub answered.
type stubReplica struct {
	name    string
	srv     *httptest.Server
	healthy atomic.Bool
	delayNs atomic.Int64
	served  atomic.Int64
	// version echoes in every /analyze answer, standing in for the
	// replica's active model version: a registry hot swap changes what
	// a replica answers, never whether it answers.
	version atomic.Int64
}

func newStub(t *testing.T, name string) *stubReplica {
	t.Helper()
	s := &stubReplica{name: name}
	s.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.healthy.Load() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		if d := s.delayNs.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{
			"stub":    s.name,
			"len":     len(body),
			"version": s.version.Load(),
		}); err != nil {
			t.Errorf("stub %s: encode response: %v", s.name, err)
		}
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func urls(stubs ...*stubReplica) []string {
	out := make([]string, len(stubs))
	for i, s := range stubs {
		out[i] = s.srv.URL
	}
	return out
}

// newDoor builds a Frontdoor over the stubs with fast probe cadence
// and registers cleanup.
func newDoor(t *testing.T, cfg Config, stubs ...*stubReplica) *Frontdoor {
	t.Helper()
	cfg.Backends = urls(stubs...)
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// post sends one body through the front door and returns the status,
// the serving stub's name ("" unless 200), and the Retry-After header.
func post(t *testing.T, door http.Handler, body []byte, hdr map[string]string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	door.ServeHTTP(rec, req)
	name := ""
	if rec.Code == http.StatusOK {
		var resp struct {
			Stub string `json:"stub"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad stub response %q: %v", rec.Body.String(), err)
		}
		name = resp.Stub
	}
	return rec.Code, name, rec.Result().Header.Get("Retry-After")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends: want error")
	}
	if _, err := New(Config{Backends: []string{"ftp://nope"}}); err == nil {
		t.Fatal("New with non-http backend: want error")
	}
	if _, err := New(Config{Backends: []string{"http://"}}); err == nil {
		t.Fatal("New with hostless backend: want error")
	}
}

// TestAffinityRouting: at idle, repeats of one body all land on the
// rendezvous-preferred replica (cache affinity), while a spread of
// distinct bodies reaches more than one replica.
func TestAffinityRouting(t *testing.T) {
	a, b, c := newStub(t, "a"), newStub(t, "b"), newStub(t, "c")
	door := newDoor(t, Config{}, a, b, c)

	body := []byte("repeat-me")
	first := ""
	for i := 0; i < 10; i++ {
		code, name, _ := post(t, door, body, nil)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if first == "" {
			first = name
		} else if name != first {
			t.Fatalf("repeat body moved: %s then %s", first, name)
		}
	}

	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		_, name, _ := post(t, door, []byte(fmt.Sprintf("distinct-%d", i)), nil)
		seen[name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct bodies all routed to one replica: %v", seen)
	}
}

// TestRendezvousDeterminism: routing is a pure function of (backend
// set, content) — a fresh front door over the same replicas, listed in
// a different order, sends the same body to the same replica.
func TestRendezvousDeterminism(t *testing.T) {
	a, b, c := newStub(t, "a"), newStub(t, "b"), newStub(t, "c")
	body := []byte("pin-me")

	d1 := newDoor(t, Config{}, a, b, c)
	_, first, _ := post(t, d1, body, nil)

	d2 := newDoor(t, Config{}, c, a, b)
	_, second, _ := post(t, d2, body, nil)

	if first == "" || first != second {
		t.Fatalf("routing not deterministic: %q vs %q", first, second)
	}
}

// TestLeastLoadedOverflow: with zero affinity slack, concurrent
// repeats of one body spill past the busy preferred replica to its
// peers instead of queueing behind it.
func TestLeastLoadedOverflow(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	door := newDoor(t, Config{AffinitySlack: -1}, a, b)

	body := []byte("hot-key")
	_, preferred, _ := post(t, door, body, nil)
	for _, s := range []*stubReplica{a, b} {
		if s.name == preferred {
			s.delayNs.Store(int64(200 * time.Millisecond))
		}
	}

	var wg sync.WaitGroup
	names := make(chan string, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, name, _ := post(t, door, body, nil)
			if code == http.StatusOK {
				names <- name
			}
		}()
	}
	wg.Wait()
	close(names)
	spilled := false
	for name := range names {
		if name != preferred {
			spilled = true
		}
	}
	if !spilled {
		t.Fatal("no request spilled off the busy preferred replica")
	}
}

// TestHealthEjectReadmit is the failover e2e: a replica starts failing
// /healthz mid-traffic and is ejected — traffic keeps flowing with no
// client-visible errors — then recovers and is readmitted.
func TestHealthEjectReadmit(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	reg := obs.NewRegistry()
	door := newDoor(t, Config{Obs: reg}, a, b)

	send := func(n int, tag string) {
		t.Helper()
		for i := 0; i < n; i++ {
			code, _, _ := post(t, door, []byte(fmt.Sprintf("%s-%d", tag, i)), nil)
			if code != http.StatusOK {
				t.Fatalf("%s request %d: status %d", tag, i, code)
			}
		}
	}

	send(16, "warm")
	if got := door.Healthy(); got != 2 {
		t.Fatalf("healthy before eject: got %d, want 2", got)
	}

	// Fail b's health check and wait for the prober to eject it.
	b.healthy.Store(false)
	waitFor(t, time.Second, func() bool { return door.Healthy() == 1 })

	ejectedServed := b.served.Load()
	send(16, "ejected") // zero errors while a replica is down
	if got := b.served.Load(); got != ejectedServed {
		t.Fatalf("ejected replica still served %d requests", got-ejectedServed)
	}

	// Recover and wait for readmission, then confirm traffic returns.
	// Each round sends new bodies: rendezvous hashing routes a body to
	// the same replica every time, so resending the same four would
	// never reach b whenever all four happen to rank a first.
	b.healthy.Store(true)
	waitFor(t, time.Second, func() bool { return door.Healthy() == 2 })
	round := 0
	waitFor(t, time.Second, func() bool {
		send(4, fmt.Sprintf("readmitted-%d", round))
		round++
		return b.served.Load() > ejectedServed
	})
}

// TestTransportFailover: a replica that dies outright (connection
// refused) is ejected on first contact and the buffered request
// retries on a peer — the client never sees the failure.
func TestTransportFailover(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	reg := obs.NewRegistry()
	door := newDoor(t, Config{Obs: reg}, a, b)

	b.srv.Close() // hard-kill one replica before any traffic

	for i := 0; i < 16; i++ {
		code, name, _ := post(t, door, []byte(fmt.Sprintf("kill-%d", i)), nil)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if name != "a" {
			t.Fatalf("request %d served by %q, want a", i, name)
		}
	}
	retries := reg.Counter("fleet.retries").Value()
	if retries == 0 {
		t.Fatal("no failover retries recorded despite a dead replica")
	}
	if door.Healthy() != 1 {
		t.Fatalf("dead replica not ejected: healthy=%d", door.Healthy())
	}
}

// TestAllBackendsDead: when every replica is unreachable the client
// gets 502, not a hang or a shed.
func TestAllBackendsDead(t *testing.T) {
	a := newStub(t, "a")
	door := newDoor(t, Config{}, a)
	a.srv.Close()

	code, _, _ := post(t, door, []byte("doomed"), nil)
	if code != http.StatusBadGateway {
		t.Fatalf("all-dead status: got %d, want 502", code)
	}
}

// TestOverloadShed: a saturated fleet rejects the excess with 503 +
// Retry-After instead of queueing it.
func TestOverloadShed(t *testing.T) {
	a := newStub(t, "a")
	a.delayNs.Store(int64(100 * time.Millisecond))
	reg := obs.NewRegistry()
	door := newDoor(t, Config{Obs: reg, MaxInflight: 1}, a)

	const n = 8
	codes := make(chan int, n)
	retryAfter := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, ra := post(t, door, []byte("overload"), nil)
			codes <- code
			retryAfter <- ra
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)

	served, shed := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("want a mix of served and shed: served=%d shed=%d", served, shed)
	}
	if got := reg.Counter("fleet.shed").Value(); got != uint64(shed) {
		t.Fatalf("fleet.shed=%d, want %d", got, shed)
	}
	sawRetryAfter := false
	for ra := range retryAfter {
		if ra != "" {
			sawRetryAfter = true
		}
	}
	if !sawRetryAfter {
		t.Fatal("no shed response carried Retry-After")
	}
}

// TestDeadlineShed: once the latency estimate says a request's
// declared budget cannot be met, it is shed up front.
func TestDeadlineShed(t *testing.T) {
	a := newStub(t, "a")
	a.delayNs.Store(int64(50 * time.Millisecond))
	reg := obs.NewRegistry()
	door := newDoor(t, Config{Obs: reg}, a)

	// Warm the latency estimate.
	for i := 0; i < 3; i++ {
		if code, _, _ := post(t, door, []byte("warm"), nil); code != http.StatusOK {
			t.Fatalf("warmup status %d", code)
		}
	}

	code, _, _ := post(t, door, []byte("rushed"), map[string]string{DeadlineHeader: "1"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("impossible-deadline status: got %d, want 503", code)
	}
	if got := reg.Counter("fleet.shed_deadline").Value(); got != 1 {
		t.Fatalf("fleet.shed_deadline=%d, want 1", got)
	}

	// A generous budget still gets served.
	code, _, _ = post(t, door, []byte("relaxed"), map[string]string{DeadlineHeader: "5000"})
	if code != http.StatusOK {
		t.Fatalf("generous-deadline status: got %d, want 200", code)
	}
}

// TestShutdownDrains: in-flight requests finish, new arrivals are shed
// with Connection: close, and Shutdown returns once the door is empty.
func TestShutdownDrains(t *testing.T) {
	a := newStub(t, "a")
	a.delayNs.Store(int64(150 * time.Millisecond))
	door := newDoor(t, Config{}, a)

	inflightCode := make(chan int, 1)
	go func() {
		code, _, _ := post(t, door, []byte("in-flight"), nil)
		inflightCode <- code
	}()
	waitFor(t, time.Second, func() bool { return door.Inflight() == 1 })

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- door.Shutdown(t.Context()) }()
	waitFor(t, time.Second, func() bool { return door.draining.Load() })

	req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader([]byte("late")))
	rec := httptest.NewRecorder()
	door.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status: got %d, want 503", rec.Code)
	}
	if rec.Result().Header.Get("Connection") != "close" {
		t.Fatal("drain shed missing Connection: close")
	}

	if code := <-inflightCode; code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if door.Inflight() != 0 {
		t.Fatalf("inflight after drain: %d", door.Inflight())
	}
}

func TestMethodAndBodyLimits(t *testing.T) {
	a := newStub(t, "a")
	door := newDoor(t, Config{MaxBody: 8}, a)

	req := httptest.NewRequest(http.MethodGet, "/analyze", nil)
	rec := httptest.NewRecorder()
	door.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status: got %d, want 405", rec.Code)
	}

	code, _, _ := post(t, door, bytes.Repeat([]byte("x"), 64), nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize status: got %d, want 413", code)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestModelSwapInvisibleToFleet pins the fleet/registry contract: a
// replica hot-swapping its active model version (the response content
// changes mid-traffic, the replica never stops answering) causes no
// health ejections, no failed requests, and no change in content
// affinity — the front door routes on content and health, never on
// what model answered.
func TestModelSwapInvisibleToFleet(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	reg := obs.NewRegistry()
	door := newDoor(t, Config{Obs: reg}, a, b)

	body := []byte("affinity-pinned-sample")
	versions := map[int64]bool{}
	sendOne := func(i int) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		door.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d during model swap", i, rec.Code)
		}
		var resp struct {
			Stub    string `json:"stub"`
			Version int64  `json:"version"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		versions[resp.Version] = true
		return resp.Stub
	}

	owner := sendOne(0)
	for i := 1; i < 12; i++ {
		if got := sendOne(i); got != owner {
			t.Fatalf("request %d moved from %s to %s before swap", i, owner, got)
		}
	}

	// Swap both replicas' model versions mid-traffic, give the prober a
	// few cycles to (wrongly) react, and keep the traffic flowing.
	a.version.Store(2)
	b.version.Store(2)
	time.Sleep(80 * time.Millisecond) // several 20ms probe intervals
	for i := 12; i < 24; i++ {
		if got := sendOne(i); got != owner {
			t.Fatalf("request %d moved from %s to %s across swap: affinity must not track model version", i, owner, got)
		}
	}

	if !versions[1] && !versions[0] || !versions[2] {
		t.Fatalf("traffic did not span the swap: versions seen %v", versions)
	}
	if got := door.Healthy(); got != 2 {
		t.Fatalf("healthy = %d after swap, want 2 (no ejections)", got)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"fleet.shed", "fleet.errors", "fleet.retries"} {
		if got := snap[name].(uint64); got != 0 {
			t.Fatalf("%s = %d across a model swap, want 0", name, got)
		}
	}
}
