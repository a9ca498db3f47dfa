// Package client is the Go client for the stratrec serving API: typed
// wrappers over the /v1 HTTP surface with connection reuse and uniform
// error decoding.
//
// The wire types are aliases of the server's own JSON shapes, so the
// client and server can never drift apart structurally, and callers that
// already hold a server.SubmitRequest can pass it straight through.
//
// Every non-2xx response decodes into an *APIError carrying the HTTP
// status, the stable machine-matchable error code, the human-readable
// message, the server's backoff hint and the echoed trace ID.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"stratrec/internal/server"
)

// Wire-type aliases: the client speaks exactly the server's JSON shapes.
type (
	SubmitRequest        = server.SubmitRequest
	SubmitResponse       = server.SubmitResponse
	EpochResponse        = server.EpochResponse
	AvailabilityRequest  = server.AvailabilityRequest
	PlanResponse         = server.PlanResponse
	PlanSummaryResponse  = server.PlanSummaryResponse
	AlternativeResponse  = server.AlternativeResponse
	TenantInfo           = server.TenantInfo
	CheckpointResponse   = server.CheckpointResponse
	BatchOp              = server.BatchOp
	BatchRequest         = server.BatchRequest
	BatchOpResult        = server.BatchOpResult
	BatchResponse        = server.BatchResponse
	ErrorDetail          = server.ErrorDetail
	CreateTenantRequest  = server.CreateTenantRequest
	TenantStatusResponse = server.TenantStatusResponse
	DrainTenantResponse  = server.DrainTenantResponse
)

// APIError is a decoded non-2xx response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable error code from the envelope (server.Code*);
	// empty when the body was not the uniform envelope.
	Code string
	// Message is the human-readable error message.
	Message string
	// RetryAfter is the server's backoff hint: the envelope's
	// retry_after_ms when present, else the Retry-After header (integer
	// seconds or HTTP-date), else 0.
	RetryAfter time.Duration
	// TraceID is the server-echoed X-Trace-Id (or the envelope's
	// trace_id), correlating this rejection with the server's structured
	// log line for the same op.
	TraceID string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("client: %d: %s", e.Status, e.Message)
}

// Client talks to one stratrec server. The zero value is not usable;
// construct with New. Methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the default keep-alive HTTP client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"). The default transport keeps connections
// alive across calls — the point of a long-lived client.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	return c
}

// tenantPath builds "/v1/tenants/<tenant>" with the name path-escaped.
func tenantPath(tenant string) string { return "/v1/tenants/" + url.PathEscape(tenant) }

// Submit submits one collaborative-task request. K defaults to 1
// server-side when zero.
func (c *Client) Submit(ctx context.Context, tenant string, req SubmitRequest) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, tenantPath(tenant)+"/requests", req, &out)
	return out, err
}

// Revoke withdraws an open request.
func (c *Client) Revoke(ctx context.Context, tenant, id string) (EpochResponse, error) {
	var out EpochResponse
	err := c.do(ctx, http.MethodDelete, tenantPath(tenant)+"/requests/"+url.PathEscape(id), nil, &out)
	return out, err
}

// SetAvailability moves the tenant's expected workforce.
func (c *Client) SetAvailability(ctx context.Context, tenant string, workforce float64) (EpochResponse, error) {
	var out EpochResponse
	err := c.do(ctx, http.MethodPut, tenantPath(tenant)+"/availability", AvailabilityRequest{Workforce: workforce}, &out)
	return out, err
}

// SendOps posts one batched-ingest body: an ordered op list applied
// through the tenant's event loop, answered with one result per op. The
// call errors only when the batch as a whole was rejected (malformed
// body, overload, read-only tenant); per-op failures live in the results.
func (c *Client) SendOps(ctx context.Context, tenant string, ops []BatchOp) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, tenantPath(tenant)+"/ops", BatchRequest{Ops: ops}, &out)
	return out, err
}

// Plan reads the tenant's current deployment plan snapshot.
func (c *Client) Plan(ctx context.Context, tenant string) (PlanResponse, error) {
	var out PlanResponse
	err := c.do(ctx, http.MethodGet, tenantPath(tenant)+"/plan", nil, &out)
	return out, err
}

// PlanSummary reads the O(1) ?view=summary projection of the plan:
// scalars plus counts, without the per-request detail. Pollers that only
// watch the epoch or objective should use this — the full PlanResponse
// serializes every open request on every read.
func (c *Client) PlanSummary(ctx context.Context, tenant string) (PlanSummaryResponse, error) {
	var out PlanSummaryResponse
	err := c.do(ctx, http.MethodGet, tenantPath(tenant)+"/plan?view=summary", nil, &out)
	return out, err
}

// Alternative asks for the ADPaR recommendation of a displaced request.
func (c *Client) Alternative(ctx context.Context, tenant, id string) (AlternativeResponse, error) {
	var out AlternativeResponse
	err := c.do(ctx, http.MethodGet, tenantPath(tenant)+"/requests/"+url.PathEscape(id)+"/alternative", nil, &out)
	return out, err
}

// Tenants lists the hosted tenants.
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	var out []TenantInfo
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// CreateTenant adds a tenant at runtime from a catalog. The new
// tenant's routes are live when the call returns.
func (c *Client) CreateTenant(ctx context.Context, tenant string, req CreateTenantRequest) (TenantStatusResponse, error) {
	var out TenantStatusResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/tenants/"+url.PathEscape(tenant), req, &out)
	return out, err
}

// DrainTenant drains and removes a tenant: new writes 503 during the
// drain, a final checkpoint is cut, and the name 404s afterwards.
func (c *Client) DrainTenant(ctx context.Context, tenant string) (DrainTenantResponse, error) {
	var out DrainTenantResponse
	err := c.do(ctx, http.MethodDelete, "/v1/admin/tenants/"+url.PathEscape(tenant), nil, &out)
	return out, err
}

// TenantStatus reads one tenant's admin status row.
func (c *Client) TenantStatus(ctx context.Context, tenant string) (TenantStatusResponse, error) {
	var out TenantStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/admin/tenants/"+url.PathEscape(tenant), nil, &out)
	return out, err
}

// Checkpoint checkpoints every tenant WAL.
func (c *Client) Checkpoint(ctx context.Context) (CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/checkpoint", nil, &out)
	return out, err
}

// do performs one call, decoding 2xx bodies into out and everything else
// into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// decodeAPIError reads a non-2xx body into an APIError, falling back to
// the raw body text when it is not the uniform envelope (a proxy's error
// page, say), and to the Retry-After header when the envelope carried no
// hint. The envelope is preferred because it keeps the server's
// millisecond precision; the header only speaks whole seconds.
func decodeAPIError(resp *http.Response) *APIError {
	e := &APIError{Status: resp.StatusCode, TraceID: resp.Header.Get(server.TraceHeader)}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env server.ErrorResponse
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		e.RetryAfter = time.Duration(env.Error.RetryAfterMs) * time.Millisecond
		if env.Error.TraceID != "" {
			e.TraceID = env.Error.TraceID
		}
	} else {
		e.Message = strings.TrimSpace(string(data))
	}
	if e.RetryAfter <= 0 {
		e.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	}
	return e
}

// parseRetryAfter decodes a Retry-After header value, which RFC 9110
// allows in two shapes: delay-seconds ("120") or an HTTP-date ("Fri, 07
// Aug 2026 12:00:00 GMT"). Returns 0 when absent or unparseable. The
// integer-seconds-only parsing this replaces silently dropped the
// HTTP-date form, turning any proxy that rewrites the header into an
// immediate-retry herd.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if s, err := strconv.Atoi(v); err == nil {
		if s <= 0 {
			return 0
		}
		return time.Duration(s) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// drain discards any remaining body and closes it, keeping the
// connection reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
