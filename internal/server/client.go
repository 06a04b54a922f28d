package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fssim/internal/pltstore"
)

// Sentinel errors a Client maps well-known server responses onto, so callers
// can branch with errors.Is instead of parsing status codes.
var (
	// ErrOverloaded: the admission queue was full (HTTP 429). Retry after
	// the duration carried by the *APIError.
	ErrOverloaded = errors.New("server overloaded")
	// ErrUnavailable: the server is draining (HTTP 503).
	ErrUnavailable = errors.New("server unavailable")
	// ErrDeadline: the request's deadline expired before the run finished
	// (HTTP 504); the result may become available later under the same id.
	ErrDeadline = errors.New("run deadline exceeded")
	// ErrSnapshotOversize: a PLT snapshot response exceeded
	// pltstore.MaxSnapshotBytes; the body was abandoned, not buffered.
	ErrSnapshotOversize = errors.New("server: snapshot response exceeds size cap")
)

// APIError is a non-200 server response.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration // from the Retry-After header, when present
	kind       error
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.StatusCode, e.Message)
}

func (e *APIError) Unwrap() error { return e.kind }

// RunResult is a successful run submission: the decoded response plus the
// exact bytes (byte-identical across identical requests) and cache status.
type RunResult struct {
	Response RunResponse
	Body     []byte // raw response body, newline-terminated
	Cache    string // X-Fssim-Cache: "miss", "coalesced" or "hit"
}

// Client talks to a running fssimd.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the server at base (e.g.
// "http://localhost:8080"). The client applies no timeout of its own —
// deadlines belong to the request context and the server's admission layer —
// and performs no retries: every failure, including a 429 or 503 shed, is
// returned to the caller as is.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// do issues one request (a JSON POST when payload is non-nil, else a GET),
// reads at most limit body bytes, and hands the response to handle.
func (c *Client) do(ctx context.Context, path string, payload []byte, limit int64, handle func(*http.Response, []byte) error) error {
	method, body := http.MethodGet, io.Reader(nil)
	if payload != nil {
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	resp.Body.Close()
	if err != nil {
		return err
	}
	return handle(resp, data)
}

// maxResponseBody bounds run/readyz response reads; these bodies are small
// JSON, so anything beyond this is garbage.
const maxResponseBody = 4 << 20

// Run submits one run request and waits for its result.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out *RunResult
	err = c.do(ctx, "/v1/runs", payload, maxResponseBody, func(resp *http.Response, body []byte) error {
		if resp.StatusCode != http.StatusOK {
			return apiError(resp, body)
		}
		out = &RunResult{Body: body, Cache: resp.Header.Get("X-Fssim-Cache")}
		if err := json.Unmarshal(body, &out.Response); err != nil {
			return fmt.Errorf("server: undecodable response: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Get fetches a previously submitted run by id. A run still executing
// returns (nil, nil): not failed, not finished.
func (c *Client) Get(ctx context.Context, id string) (*RunResult, error) {
	var out *RunResult
	err := c.do(ctx, "/v1/runs/"+id, nil, maxResponseBody, func(resp *http.Response, body []byte) error {
		switch resp.StatusCode {
		case http.StatusOK:
			out = &RunResult{Body: body, Cache: resp.Header.Get("X-Fssim-Cache")}
			if err := json.Unmarshal(body, &out.Response); err != nil {
				return fmt.Errorf("server: undecodable response: %w", err)
			}
			return nil
		case http.StatusAccepted:
			out = nil
			return nil
		default:
			return apiError(resp, body)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Snapshot fetches the newest persisted PLT snapshot for a benchmark
// (GET /v1/plt/{benchmark}) as raw pltstore bytes — droppable into another
// process's warm directory to ship learned state between hosts. The body is
// read through a limit sized from pltstore's decode caps; an oversize
// response is rejected with ErrSnapshotOversize without buffering it.
func (c *Client) Snapshot(ctx context.Context, benchmark string) ([]byte, error) {
	var out []byte
	err := c.do(ctx, "/v1/plt/"+url.PathEscape(benchmark), nil, pltstore.MaxSnapshotBytes+1, func(resp *http.Response, body []byte) error {
		if resp.StatusCode != http.StatusOK {
			return apiError(resp, body)
		}
		if int64(len(body)) > pltstore.MaxSnapshotBytes {
			return fmt.Errorf("%w (> %d bytes)", ErrSnapshotOversize, int64(pltstore.MaxSnapshotBytes))
		}
		out = body
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadyState is the decoded GET /readyz body: whether the server is
// admitting work, and its current load.
type ReadyState struct {
	Status     string `json:"status"` // "ready" or "draining"
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

// Readyz fetches and decodes the server's readiness state. The returned
// state is valid whenever err is nil — including a draining server, which
// responds 503 but still describes itself.
func (c *Client) Readyz(ctx context.Context) (ReadyState, error) {
	var st ReadyState
	err := c.do(ctx, "/readyz", nil, maxResponseBody, func(resp *http.Response, body []byte) error {
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			return apiError(resp, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("server: undecodable readyz body: %w", err)
		}
		return nil
	})
	return st, err
}

// Ready reports whether the server is accepting work (GET /readyz).
func (c *Client) Ready(ctx context.Context) bool {
	st, err := c.Readyz(ctx)
	return err == nil && !st.Draining && st.Status == "ready"
}

// apiError decodes an error response into an *APIError with the matching
// sentinel kind.
func apiError(resp *http.Response, body []byte) error {
	var eb errBody
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	e := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(sec) * time.Second
		}
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		e.kind = ErrOverloaded
	case http.StatusServiceUnavailable:
		e.kind = ErrUnavailable
	case http.StatusGatewayTimeout:
		e.kind = ErrDeadline
	}
	return e
}
