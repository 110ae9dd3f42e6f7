package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Client is a typed client for the session API, spoken by bpservd and
// proxied unchanged by bprouter. Every non-2xx reply comes back as an
// *APIError; any other error (a refused connection, a reset, a
// cancelled context, a malformed 2xx body) is not one, which is how a
// caller tells "the server said no" from "the server may not have
// heard".
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the API at base (e.g.
// "http://127.0.0.1:8080"), sending through hc (nil means
// http.DefaultClient).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// APIError is a non-2xx reply, decoded from its ErrorBody envelope. A
// reply without one (a proxy's plain-text page) keeps its text as the
// Message.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("HTTP %d: %s: %s", e.Status, e.Code, e.Message)
}

// send makes one request and returns the body of a 2xx reply. rid, if
// set, is sent as the X-Request-Id.
func (c *Client) send(ctx context.Context, method, path, contentType, rid string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if rid != "" {
		req.Header.Set(telemetry.RequestIDHeader, rid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return raw, nil
	}
	e := &APIError{Status: resp.StatusCode}
	var env ErrorBody
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		e.Code, e.Message, e.RequestID = env.Error.Code, env.Error.Message, env.Error.RequestID
	} else {
		e.Message = strings.TrimSpace(string(raw))
	}
	return nil, e
}

// call sends one request (a body of contentType, and rid as the
// X-Request-Id when set) and decodes a 2xx JSON reply as a T.
func call[T any](ctx context.Context, c *Client, method, path, contentType, rid string, body []byte) (T, error) {
	var out T
	raw, err := c.send(ctx, method, path, contentType, rid, body)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("%s %s: decoding the reply: %w", method, path, err)
	}
	return out, nil
}

// callJSON is call with in (if non-nil) sent as a JSON body.
func callJSON[T any](ctx context.Context, c *Client, method, path string, in any) (T, error) {
	if in == nil {
		return call[T](ctx, c, method, path, "", "", nil)
	}
	body, err := json.Marshal(in)
	if err != nil {
		var zero T
		return zero, err
	}
	return call[T](ctx, c, method, path, "application/json", "", body)
}

// EncodeBatch wraps an event slice and its instruction credit in the
// P64T wire format that Feed posts.
func EncodeBatch(events []trace.Event, insts uint64) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	(&trace.Trace{Name: "batch", Insts: insts, Events: events}).WriteTo(&buf)
	return buf.Bytes()
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.send(ctx, http.MethodGet, "/healthz", "", "", nil)
	return err
}

// Metrics returns the Prometheus text page at GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.send(ctx, http.MethodGet, "/metrics", "", "", nil)
	return string(raw), err
}

// Predictors lists the registry's predictor kinds.
func (c *Client) Predictors(ctx context.Context) (PredictorsResponse, error) {
	return callJSON[PredictorsResponse](ctx, c, http.MethodGet, "/v1/predictors", nil)
}

// Create creates a session.
func (c *Client) Create(ctx context.Context, req SessionRequest) (SessionJSON, error) {
	return callJSON[SessionJSON](ctx, c, http.MethodPost, "/v1/sessions", req)
}

// List returns the resident sessions, without metrics.
func (c *Client) List(ctx context.Context) ([]SessionJSON, error) {
	list, err := callJSON[SessionList](ctx, c, http.MethodGet, "/v1/sessions", nil)
	return list.Sessions, err
}

// Feed posts one P64T batch (see EncodeBatch) to session id. A nonzero
// seq numbers the batch for exactly-once redelivery. A nonempty rid is
// sent as the batch's X-Request-Id: an ID kept across redeliveries lets
// one grep follow the batch through a router failover into whichever
// backend applied it.
func (c *Client) Feed(ctx context.Context, id string, batch []byte, seq uint64, rid string) (BatchResponse, error) {
	path := "/v1/sessions/" + id + "/events"
	if seq != 0 {
		path = fmt.Sprintf("%s?seq=%d", path, seq)
	}
	return call[BatchResponse](ctx, c, http.MethodPost, path, "application/octet-stream", rid, batch)
}

// Get returns session id with its metrics.
func (c *Client) Get(ctx context.Context, id string) (SessionJSON, error) {
	return callJSON[SessionJSON](ctx, c, http.MethodGet, "/v1/sessions/"+id, nil)
}

// Delete removes session id and returns its final state and metrics.
func (c *Client) Delete(ctx context.Context, id string) (SessionJSON, error) {
	return callJSON[SessionJSON](ctx, c, http.MethodDelete, "/v1/sessions/"+id, nil)
}

// Snapshot returns session id's P64S snapshot; the session stays
// resident.
func (c *Client) Snapshot(ctx context.Context, id string) ([]byte, error) {
	return c.send(ctx, http.MethodGet, "/v1/sessions/"+id+"/snapshot", "", "", nil)
}

// Restore installs a P64S snapshot as session id.
func (c *Client) Restore(ctx context.Context, id string, blob []byte) (SessionJSON, error) {
	return call[SessionJSON](ctx, c, http.MethodPost, "/v1/sessions/"+id+"/restore", "application/octet-stream", "", blob)
}
