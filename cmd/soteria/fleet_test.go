package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soteria"
	"soteria/internal/fleet"
	"soteria/internal/malgen"
)

// trainTinySystem builds a small trained System plus its corpus, shared
// shape with TestServeHandler but without a registry (fleet replicas
// carry their own).
func trainTinySystem(t *testing.T, seed int64) (*soteria.System, []*malgen.Sample) {
	t.Helper()
	gen := malgen.NewGenerator(malgen.Config{Seed: seed})
	var corpus []*malgen.Sample
	for _, c := range malgen.Classes {
		for i := 0; i < 3; i++ {
			s, err := gen.Sample(c)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, s)
		}
	}
	opts := soteria.DefaultOptions()
	opts.Features.WalkCount = 3
	opts.DetectorEpochs = 6
	opts.ClassifierEpochs = 6
	opts.Filters = 4
	opts.DenseUnits = 16
	sys, err := soteria.Train(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, corpus
}

// TestFleetProxyMatchesDirect is the serving-tier equivalence pin:
// decisions served through the front door — spawned replicas, routing,
// the whole proxy path — are byte-identical to the JSON a direct
// Analyze call on the source model would produce.
func TestFleetProxyMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, corpus := trainTinySystem(t, 11)

	var model bytes.Buffer
	if err := sys.Save(&model); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		r, err := spawnReplica(model.Bytes(), false, soteria.DefaultCacheMaxBytes)
		if err != nil {
			t.Fatalf("spawnReplica %d: %v", i, err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := r.drain(ctx); err != nil {
				t.Errorf("replica drain: %v", err)
			}
		})
		urls = append(urls, r.url)
	}

	reg := soteria.NewRegistry()
	door, err := fleet.New(fleet.Config{Backends: urls, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(door.Close)
	front := httptest.NewServer(frontdoorHandler(door, reg, urls))
	t.Cleanup(front.Close)

	for i, s := range corpus[:4] {
		raw, err := s.Binary.Encode()
		if err != nil {
			t.Fatal(err)
		}
		salt := int64(7*i + 1)
		res, err := http.Post(fmt.Sprintf("%s/analyze?salt=%d", front.URL, salt),
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(res.Body)
		bodyClose(t, res)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, res.StatusCode, got)
		}

		dec, err := sys.Analyze(s.CFG, salt)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(analyzeResponse{
			Adversarial: dec.Adversarial,
			RE:          dec.RE,
			Class:       dec.Class.String(),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("sample %d: proxy response %q diverges from direct %q", i, got, want.Bytes())
		}
	}

	// The front door's own surface: /healthz answers, /metrics carries
	// the fleet.* counters for the traffic just served.
	res, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("front /healthz status %d", res.StatusCode)
	}
	res, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	err = json.NewDecoder(res.Body).Decode(&snap)
	bodyClose(t, res)
	if err != nil {
		t.Fatalf("front /metrics: %v", err)
	}
	var served float64
	if err := json.Unmarshal(snap["fleet.requests"], &served); err != nil || served < 4 {
		t.Fatalf("fleet.requests = %s (err %v), want >= 4", snap["fleet.requests"], err)
	}
}
