package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/service"
	"axml/internal/telemetry"
)

// Transport robustness defaults. A peer exchanging intensional documents on
// the open network must bound what it reads and how long it waits: an
// unbounded body is a memory exhaustion vector, and a timeout-less client
// blocks a rewriting forever on one hung remote (cf. the robustness concerns
// of distributed XML design).
const (
	// DefaultMaxRequestBytes caps decoded SOAP request bodies server-side.
	DefaultMaxRequestBytes = 8 << 20 // 8 MiB
	// DefaultMaxResponseBytes caps response bodies the client will read.
	DefaultMaxResponseBytes = 32 << 20 // 32 MiB
	// DefaultTimeout bounds a full client round trip.
	DefaultTimeout = 30 * time.Second
	// bodyExcerptBytes bounds how much of a non-SOAP error body is quoted in
	// client error messages.
	bodyExcerptBytes = 256
)

// DefaultTransport backs DefaultClient: http.DefaultTransport's dialer and
// TLS settings with the idle-connection pool resized for peer federation.
// The stock per-host limit (MaxIdleConnsPerHost = 2) fits a client talking
// to many hosts a little; a peer fanning materialization calls out to a few
// federated peers a lot churns through connections instead — every burst
// beyond two concurrent calls to the same peer closes and redials on the
// next burst. Raising the per-host limit keeps a fan-out's worth of
// connections warm per peer; IdleConnTimeout still reclaims them when a
// peer goes quiet.
var DefaultTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}()

// DefaultClient is the HTTP client used when none is configured: unlike
// http.DefaultClient it carries a timeout, so a hung remote peer cannot
// stall schema enforcement indefinitely, and a pooled transport tuned for
// repeated calls to the same few peers (see DefaultTransport).
var DefaultClient = &http.Client{Timeout: DefaultTimeout, Transport: DefaultTransport}

// Server exposes a service registry as a SOAP endpoint. The OnRequest and
// OnResponse hooks are where the peer's Schema Enforcement module plugs in:
// they may rewrite (materialize) the forests or reject the exchange.
type Server struct {
	Registry  *service.Registry
	Namespace string
	// OnRequest intercepts decoded parameters before dispatch, under the
	// request's context: a client disconnect cancels the enforcement
	// rewriting it triggers.
	OnRequest func(ctx context.Context, method string, params []*doc.Node) ([]*doc.Node, error)
	// OnResponse intercepts results before they are written back, under the
	// request's context.
	OnResponse func(ctx context.Context, method string, result []*doc.Node) ([]*doc.Node, error)
	// MaxRequestBytes caps the request body; 0 selects
	// DefaultMaxRequestBytes, negative disables the limit.
	MaxRequestBytes int64
}

// ServeHTTP implements http.Handler. It reads the capped body into a
// pooled buffer before parsing it, so a body over the cap is refused with
// 413 whether or not it would also fail to parse; it decodes the envelope
// in place, and renders the reply into a pooled buffer that it writes
// once, with its Content-Length.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoints accept POST only", http.StatusMethodNotAllowed)
		return
	}
	body := io.Reader(r.Body)
	limit := s.MaxRequestBytes
	if limit == 0 {
		limit = DefaultMaxRequestBytes
	}
	if limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	buf := getBuf()
	defer putBuf(buf)
	var err error
	if *buf, err = readBody(*buf, body, 0); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fault(w, http.StatusRequestEntityTooLarge, "soap:Client",
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.fault(w, http.StatusBadRequest, "soap:Client", fmt.Errorf("soap: reading envelope: %w", err))
		return
	}
	method, _, params, err := decodeRequest(*buf)
	if err != nil {
		s.fault(w, http.StatusBadRequest, "soap:Client", err)
		return
	}
	if s.OnRequest != nil {
		params, err = s.OnRequest(r.Context(), method, params)
		if err != nil {
			s.fault(w, http.StatusBadRequest, "soap:Client", err)
			return
		}
	}
	result, err := s.Registry.Call(r.Context(), method, params)
	if err != nil {
		s.fault(w, http.StatusInternalServerError, "soap:Server", err)
		return
	}
	if s.OnResponse != nil {
		result, err = s.OnResponse(r.Context(), method, result)
		if err != nil {
			s.fault(w, http.StatusInternalServerError, "soap:Server", err)
			return
		}
	}
	// The decoded request refers to nothing in buf, which now takes the
	// reply.
	if *buf, err = appendEnvelope((*buf)[:0], method, "Response", s.Namespace, result); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/xml; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf)
}

func (s *Server) fault(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	_ = WriteFault(w, code, err.Error())
}

// Client calls a fixed SOAP endpoint.
type Client struct {
	Endpoint  string
	Namespace string
	// HTTP performs the round trips; nil selects DefaultClient (which,
	// unlike http.DefaultClient, has a timeout).
	HTTP *http.Client
	// MaxResponseBytes caps how much of a response body is read; 0 selects
	// DefaultMaxResponseBytes, negative disables the limit.
	MaxResponseBytes int64
}

// Call performs one SOAP request/response round trip under a context:
// cancellation or deadline expiry interrupts the connection, the in-flight
// request and the body read. HTTP-level failures are reported as such: a
// SOAP fault in the body (whatever the status code) surfaces as *Fault,
// while a non-SOAP error body — a proxy error page, a plain-text http.Error
// — yields an error carrying the HTTP status and a bounded excerpt instead
// of a confusing XML parse error.
//
// The request is rendered into a pooled buffer and sent from one
// exact-size copy: the transport may read the body after Do returns, and
// reads it again through GetBody to retry. The response is read, under
// MaxResponseBytes, into the pooled buffer and decoded in place.
func (c *Client) Call(ctx context.Context, method string, params []*doc.Node) ([]*doc.Node, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = DefaultClient
	}
	buf := getBuf()
	defer putBuf(buf)
	var err error
	if *buf, err = appendEnvelope(*buf, method, "", c.Namespace, params); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(bytes.Clone(*buf)))
	if err != nil {
		return nil, fmt.Errorf("soap: calling %s at %s: %w", method, c.Endpoint, err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	// Propagate the caller's trace so the remote peer's spans, audit
	// events, and request logs join this request's trace ID.
	telemetry.InjectTraceContext(ctx, req.Header)
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("soap: calling %s at %s: %w", method, c.Endpoint, err)
	}
	defer resp.Body.Close()
	limit := c.MaxResponseBytes
	if limit == 0 {
		limit = DefaultMaxResponseBytes
	}
	if *buf, err = readBody((*buf)[:0], resp.Body, max(limit, 0)); err != nil { // a negative limit reads all
		return nil, fmt.Errorf("soap: %s at %s: reading response: %w", method, c.Endpoint, err)
	}
	body := *buf

	ct := resp.Header.Get("Content-Type")
	if xmlContentType(ct) {
		out, perr := decodeResponse(body)
		if fault, ok := perr.(*Fault); ok {
			return nil, fault // server-reported fault, any status code
		}
		if perr == nil {
			if resp.StatusCode != http.StatusOK {
				// A well-formed response on an error status is a broken
				// server or intermediary; do not trust the payload.
				return nil, fmt.Errorf("soap: %s at %s: HTTP %s with a response body", method, c.Endpoint, resp.Status)
			}
			return out, nil
		}
		if resp.StatusCode == http.StatusOK {
			return nil, fmt.Errorf("soap: %s at %s: %w", method, c.Endpoint, perr)
		}
		// fall through: non-OK status with unparsable XML body
	}
	return nil, fmt.Errorf("soap: %s at %s: HTTP %s (Content-Type %q): %s",
		method, c.Endpoint, resp.Status, ct, excerpt(body))
}

// xmlContentType accepts the media types SOAP 1.x replies arrive with. An
// absent Content-Type is accepted leniently — the body decides.
func xmlContentType(ct string) bool {
	if ct == "" {
		return true
	}
	mediaType, _, _ := strings.Cut(ct, ";")
	mediaType = strings.TrimSpace(strings.ToLower(mediaType))
	switch mediaType {
	case "text/xml", "application/xml", "application/soap+xml":
		return true
	}
	return strings.HasSuffix(mediaType, "+xml")
}

// excerpt renders a bounded, quote-escaped prefix of an error body.
func excerpt(body []byte) string {
	truncated := false
	if len(body) > bodyExcerptBytes {
		body = body[:bodyExcerptBytes]
		truncated = true
	}
	s := strings.TrimSpace(string(body))
	if s == "" {
		return "empty body"
	}
	if truncated {
		return fmt.Sprintf("%q...", s)
	}
	return fmt.Sprintf("%q", s)
}

// Invoker routes function nodes to SOAP endpoints: a node's ServiceRef
// endpoint wins; Default is used for nodes without one. It implements
// core.Invoker, making remote services directly usable by the rewriter.
type Invoker struct {
	// Default is the endpoint for calls without an explicit ServiceRef.
	Default string
	// Namespace stamps outgoing body elements.
	Namespace string
	// HTTP performs the round trips; nil selects DefaultClient.
	HTTP *http.Client
	// MaxResponseBytes caps each response body as Client's does.
	MaxResponseBytes int64
}

// Invoke implements core.Invoker; the rewriting's context rides the HTTP
// request, so cancelling the rewrite tears down the connection.
func (i *Invoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	endpoint := i.Default
	ns := i.Namespace
	if call.Service != nil {
		if call.Service.Endpoint != "" {
			endpoint = call.Service.Endpoint
		}
		if call.Service.Namespace != "" {
			ns = call.Service.Namespace
		}
	}
	if endpoint == "" {
		return nil, fmt.Errorf("soap: no endpoint for %q", call.Label)
	}
	c := Client{Endpoint: endpoint, Namespace: ns, HTTP: i.HTTP, MaxResponseBytes: i.MaxResponseBytes}
	return c.Call(ctx, call.Label, call.Children)
}

var _ core.Invoker = (*Invoker)(nil)
