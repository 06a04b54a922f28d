package server

import (
	"strings"
	"testing"
	"time"
)

// FuzzRunRequestDecode hammers the request decoder with arbitrary bytes: it
// must never panic, and any request it accepts must survive validation and
// key derivation without panicking either — the full untrusted path a
// malicious POST body can reach — and the key it builds must be normalized,
// deterministic, and equal to itself (a memo-cache map key).
func FuzzRunRequestDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"benchmark":"ab-rand"}`,
		`{"benchmark":"ab-rand","mode":"accel","strategy":"eager","l2":1048576,"scale":0.5,"seed":7,"faults":"storm","deadline_ms":250}`,
		`{"benchmark":"srv-ok","mode":"full","scale":1e308}`,
		`{"benchmark":"","seed":-9223372036854775808}`,
		`{"benchmark":"ab-rand","scale":null}`,
		`{"benchmark":"ab-rand"} trailing`,
		`[1,2,3]`,
		`"just a string"`,
		`{"benchmark":"ab-rand","bogus":true}`,
		strings.Repeat(`{"benchmark":`, 100),
		`{"benchmark":"ab-rand","scale":NaN}`,
		`{"benchmark":"ab-rand","sample":"range=NaN"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRunRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		// Accepted requests must produce a stable, normalized key and a sane
		// deadline.
		key, err := req.key(1.0, 1)
		if err != nil {
			return
		}
		if key != key {
			t.Fatalf("request key %v is not equal to itself: %q", key, body)
		}
		if key.String() == "" || key.ID() == "" {
			t.Fatalf("valid request produced empty key or id: %q", body)
		}
		if key.Normalized() != key {
			t.Fatalf("request key %v is not normalized: %q", key, body)
		}
		key2, err := req.key(1.0, 1)
		if err != nil || key != key2 || key.ID() != key2.ID() {
			t.Fatalf("key derivation not deterministic for %q (err %v)", body, err)
		}
		if d := req.deadline(2 * time.Minute); d <= 0 || d > 2*time.Minute {
			t.Fatalf("deadline %v out of range for %q", d, body)
		}
	})
}
