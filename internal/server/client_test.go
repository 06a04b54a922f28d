package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fssim/internal/pltstore"
)

// TestUnavailableIsSingleShot: the client never retries. A 503 comes back
// once, as ErrUnavailable with the server's Retry-After, and the server sees
// exactly one attempt; retrying is the caller's decision.
func TestUnavailableIsSingleShot(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"draining"}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	_, err := c.Run(context.Background(), RunRequest{Benchmark: "srv-ok"})
	var ae *APIError
	if !errors.Is(err, ErrUnavailable) || !errors.As(err, &ae) || ae.RetryAfter.Seconds() != 2 {
		t.Fatalf("Run err = %v, want ErrUnavailable carrying Retry-After 2s", err)
	}
	if _, err := c.Get(context.Background(), "r1"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get err = %v, want ErrUnavailable", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("server saw %d attempts for two calls, want 2 (no retries)", got)
	}
}

// TestSnapshotOversizeRejected: a snapshot body beyond pltstore's cap is
// refused with the typed error instead of being buffered whole.
func TestSnapshotOversizeRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		chunk := make([]byte, 1<<20)
		for written := int64(0); written <= pltstore.MaxSnapshotBytes; written += int64(len(chunk)) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).Snapshot(context.Background(), "srv-ok")
	if !errors.Is(err, ErrSnapshotOversize) {
		t.Fatalf("err = %v, want ErrSnapshotOversize", err)
	}
}

// TestReadyzBody: /readyz describes the server in JSON — ready and draining
// alike — while keeping the status-code contract (200 ready, 503 draining).
func TestReadyzBody(t *testing.T) {
	s, c := newTestServer(t, Config{Queue: 7})
	ctx := context.Background()

	st, err := c.Readyz(ctx)
	if err != nil {
		t.Fatalf("Readyz: %v", err)
	}
	if st.Status != "ready" || st.Draining || st.QueueCap != 7 {
		t.Errorf("ready state = %+v", st)
	}

	done := make(chan error, 1)
	go func() { done <- s.Drain(ctx) }()
	waitFor(t, func() bool {
		st, err := c.Readyz(ctx)
		return err == nil && st.Draining
	})
	st, err = c.Readyz(ctx)
	if err != nil {
		t.Fatalf("Readyz while draining: %v", err)
	}
	if st.Status != "draining" || !st.Draining {
		t.Errorf("draining state = %+v", st)
	}
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
