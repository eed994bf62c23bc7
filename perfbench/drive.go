package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// decision is a served /analyze verdict, compared bit for bit against
// the in-process reference.
type decision struct {
	Adversarial bool    `json:"adversarial"`
	RE          float64 `json:"re"`
	Class       string  `json:"class"`
}

// outcome is one request's record. Times are offsets from the phase
// start: due is when the schedule said to send, sent when a connection
// actually started the request, done when the full response was read.
type outcome struct {
	due, sent, done time.Duration
	status          int
	err             error
	dec             decision
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// newClient returns an HTTP client holding at most conns connections to
// the target, so the server never sees more than conns requests at once.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one /analyze request and reads its decision.
func post(client *http.Client, base string, in *input) (int, decision, error) {
	var dec decision
	url := fmt.Sprintf("%s/analyze?salt=%d", base, in.salt)
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(in.raw))
	if err != nil {
		return 0, dec, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, dec, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, dec, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, dec, json.Unmarshal(body, &dec)
}

// openLoop offers reqs on the dueAt schedule through conns sending
// workers. A request waits in the queue when every connection is busy,
// and that wait counts in its latency, which runs from its due time.
// The dispatcher calls mark(k) just before the first request of each
// of the windows equal slices of reqs, and mark(windows) once every
// request has completed.
func openLoop(client *http.Client, base string, reqs []*input, rate float64, conns, windows int, mark func(k int)) []outcome {
	outs := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &outs[i]
				o.sent = time.Since(start)
				o.status, o.dec, o.err = post(client, base, reqs[i])
				o.done = time.Since(start)
			}
		}()
	}
	next := 0 // next window to mark
	for i := range reqs {
		due := dueAt(i, rate)
		outs[i].due = due
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		for ; next < windows && windowStart(next, windows, len(reqs)) <= i; next++ {
			mark(next)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	mark(windows)
	return outs
}

// windowStart is the first index of window k when n items are cut into
// windows equal consecutive slices.
func windowStart(k, windows, n int) int { return (k*n + windows - 1) / windows }

// dueAt is the open-loop schedule: request i is due i/rate seconds
// after the phase starts.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// closedLoop sends reqs back to back from conns clients, each sending
// its next request as soon as its previous one completes, and returns
// the outcomes and the phase's wall time.
func closedLoop(client *http.Client, base string, reqs []*input, conns int) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				o := &outs[i]
				o.sent = time.Since(start)
				o.due = o.sent
				o.status, o.dec, o.err = post(client, base, reqs[i])
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}
