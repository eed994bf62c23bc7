package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// server is one running `soteria -serve` or `-fleet` process.
type server struct {
	cmd      *exec.Cmd
	url      string   // base URL of the serving address
	replicas []string // spawned replica base URLs (-fleet only)
	setup    time.Duration
	exited   chan struct{}
	log      *strings.Builder
}

var (
	serveLine   = regexp.MustCompile(`(?:serving on|fleet front door on) (\S+)`)
	replicaLine = regexp.MustCompile(`spawned \d+ replicas: (.*)$`)
)

// startServer launches bin with args on an ephemeral port and waits
// until /healthz answers 200. setup runs from just before the process
// starts to that first 200: the listener opens only once the model is
// loaded (and, for -fleet, once every replica listens), so it covers
// the whole start-up. The process dies with the benchmark if the
// benchmark is killed.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), log: new(strings.Builder)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1) // one send: the serving line appears once
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.log, line)
			if m := replicaLine.FindStringSubmatch(line); m != nil {
				s.replicas = strings.Fields(m[1])
			}
			if m := serveLine.FindStringSubmatch(line); m != nil && !sent {
				addr <- "http://" + m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.url = <-addr:
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before serving:\n%s", bin, s.log)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start serving within 60s", bin)
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%s exited before /healthz answered:\n%s", bin, s.log)
		case <-time.After(time.Millisecond):
		}
	}
	s.stop()
	return nil, fmt.Errorf("%s/healthz did not answer 200 within 60s", s.url)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to shut down gracefully and waits for it to
// exit, killing it if the drain outlasts the grace period. Calling it
// again after the process has exited returns at once.
func (s *server) stop() {
	// Signal fails only when the process has already exited, which the
	// wait below then observes.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads a /metrics snapshot.
func scrape(base string) (metricSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap metricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	return snap, nil
}

// metricSnapshot is a decoded /metrics document: counters and gauges as
// numbers, histograms as objects with count and sum.
type metricSnapshot map[string]json.RawMessage

// num reads a counter or gauge (0 when absent).
func (m metricSnapshot) num(name string) float64 {
	var v float64
	_ = json.Unmarshal(m[name], &v)
	return v
}

// hist reads a histogram's count and sum (zero when absent).
func (m metricSnapshot) hist(name string) (count, sum float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	_ = json.Unmarshal(m[name], &h)
	return h.Count, h.Sum
}
