package fleet

import (
	"context"
	"io"
	"net/http"
	"time"
)

// probeLoop drives health-gated membership: every ProbeInterval it
// probes all backends concurrently and republishes the healthy-count
// gauge. It exits when ctx (the Frontdoor's lifetime, cancelled by
// Close) ends.
func (f *Frontdoor) probeLoop(ctx context.Context) {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		f.probeAll(ctx)
	}
}

// probeAll runs one probe round. Backends probe concurrently so one
// hung replica cannot delay membership decisions for the rest; the
// round still completes within ProbeInterval.
func (f *Frontdoor) probeAll(ctx context.Context) {
	done := make(chan struct{}, len(f.bes))
	for _, be := range f.bes {
		be := be
		go func() {
			f.probe(ctx, be)
			done <- struct{}{}
		}()
	}
	for range f.bes {
		<-done
	}
	f.met.healthy.Set(float64(f.Healthy()))
}

// probe runs one backend's health check. consecFail/consecOK are
// prober-owned state: only this goroutine moves them.
func (f *Frontdoor) probe(ctx context.Context, be *backend) {
	pctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeInterval)
	defer cancel()
	if f.probeOnce(pctx, be) {
		be.consecFail = 0
		be.consecOK++
		if !be.healthy.Load() && be.consecOK >= readmitAfter {
			be.healthy.Store(true)
		}
	} else {
		be.consecOK = 0
		be.consecFail++
		if be.consecFail >= ejectAfter {
			be.healthy.Store(false)
		}
	}
}

// probeOnce reports whether one GET /healthz round trip succeeded.
func (f *Frontdoor) probeOnce(ctx context.Context, be *backend) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, be.healthz, nil)
	if err != nil {
		return false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false
	}
	// Drain so the keep-alive connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
