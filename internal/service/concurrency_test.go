package service

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// N goroutines racing on the same sweep point must trigger exactly one
// simulation: one request computes, the rest share or hit. Verified by the
// simulation-event counter — duplicate runs would double it — plus
// byte-identical bodies and a single "computed" source.
func TestConcurrentIdenticalRequestsSimulateOnce(t *testing.T) {
	// Baseline: how many simulation events does one fresh run cost?
	ref, refTS := newTestServer(t, Config{})
	resp := postJSON(t, refTS.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":7}`)
	refBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline run: %d %s", resp.StatusCode, refBody)
	}
	singleRun := ref.SimEvents()
	if singleRun <= 0 {
		t.Fatalf("baseline run recorded %d simulation events", singleRun)
	}

	// Race N identical requests against a fresh server.
	s, ts := newTestServer(t, Config{Workers: 4})
	const n = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		bodies  [][]byte
		sources []string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
				strings.NewReader(`{"exp":"E1","quick":true,"seed":7}`))
			if err != nil {
				t.Error(err)
				return
			}
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("racing run: %d %s", resp.StatusCode, body)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			sources = append(sources, resp.Header.Get("X-Sweepd-Source"))
			mu.Unlock()
		}()
	}
	wg.Wait()

	if got := s.SimEvents(); got != singleRun {
		t.Errorf("%d racing requests cost %d simulation events, want exactly one run's %d",
			n, got, singleRun)
	}
	if len(bodies) != n {
		t.Fatalf("%d responses, want %d", len(bodies), n)
	}
	computed := 0
	for i, b := range bodies {
		if !bytes.Equal(b, refBody) {
			t.Errorf("response %d differs from the fresh-run bytes", i)
		}
		if sources[i] == "computed" {
			computed++
		}
	}
	if computed != 1 {
		t.Errorf("%d responses claim source=computed (%v), want exactly 1", computed, sources)
	}
}

// Graceful shutdown: the in-flight run completes with 200, the waiting
// requests are rejected with 503 without running.
func TestDrainCompletesInFlightRejectsQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4})

	// Run A holds the lone slot (full-scale E5 runs for over a second,
	// long enough that the drain below reliably begins while it is still
	// running); B and C wait in line behind it.
	a := runAsync(t, ts.URL, `{"exp":"E5","seed":201}`)
	waitGauge(t, "running", &s.running, 1)
	b := runAsync(t, ts.URL, `{"exp":"E1","quick":true,"seed":202}`)
	c := runAsync(t, ts.URL, `{"exp":"E1","quick":true,"seed":203}`)
	waitGauge(t, "queue depth", &s.queueDepth, 2)

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if res := <-a; res.code != http.StatusOK {
		t.Errorf("in-flight run A: %d %s, want 200", res.code, res.body)
	}
	for _, ch := range []<-chan runResult{b, c} {
		if res := <-ch; res.code != http.StatusServiceUnavailable || !strings.Contains(string(res.body), "rejected") {
			t.Errorf("waiting run: %d %s, want 503 rejected", res.code, res.body)
		}
	}
	if got := s.jobsByEnd[jobRejected].Value(); got != 2 {
		t.Errorf("%d jobs counted rejected, want 2", got)
	}
}

// Drain with an expired context cancels whatever is still running instead
// of waiting it out, reports the context error, and the cut-loose run
// answers 503 so that a coordinator re-dispatches it to a survivor.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// A full-scale E2 runs for several seconds — far past the drain grace.
	run := runAsync(t, ts.URL, `{"exp":"E2","seed":204}`)
	waitGauge(t, "running", &s.running, 1)

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(drainCtx)
	if err == nil {
		t.Fatal("drain with expired grace returned nil, want context error")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("drain took %s despite a 50ms grace", took)
	}
	if res := <-run; res.code != http.StatusServiceUnavailable {
		t.Errorf("cut-loose run: %d %s, want 503", res.code, res.body)
	}
}
