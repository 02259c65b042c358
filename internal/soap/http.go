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
//
// A request carries one body entry per call, at most MaxEntries: a request
// with more is refused, as a malformed one is, before any entry runs. The
// entries run in order, each through OnRequest, the registry and
// OnResponse, and the reply holds one response entry per call. The first
// entry that fails ends the run: the reply holds the results before it,
// then its soap:Fault, under the fault's status, and nothing after it
// runs. A reply to a single call that fails is the fault alone.
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
	calls, err := decodeRequests(*buf, MaxEntries)
	if err != nil {
		s.fault(w, http.StatusBadRequest, "soap:Client", err)
		return
	}
	// The decoded calls refer to nothing in buf, which now takes the
	// reply.
	reply, status := append((*buf)[:0], envelopeOpen...), http.StatusOK
	for i := range calls {
		result, st, code, err := s.run(r.Context(), &calls[i])
		if err != nil {
			if i == 0 {
				s.fault(w, st, code, err)
				return
			}
			reply, status = appendFaultEntry(reply, code, err.Error()), st
			break
		}
		if reply, err = appendEntry(reply, calls[i].Method, "Response", s.Namespace, result); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	*buf = append(reply, envelopeClose...)
	h := w.Header()
	h.Set("Content-Type", "text/xml; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(*buf)
}

// run runs one call through OnRequest, the registry and OnResponse. A
// failure comes with the status and fault code of its reply.
func (s *Server) run(ctx context.Context, call *Request) (result []*doc.Node, status int, code string, err error) {
	params := call.Params
	if s.OnRequest != nil {
		if params, err = s.OnRequest(ctx, call.Method, params); err != nil {
			return nil, http.StatusBadRequest, "soap:Client", err
		}
	}
	if result, err = s.Registry.Call(ctx, call.Method, params); err != nil {
		return nil, http.StatusInternalServerError, "soap:Server", err
	}
	if s.OnResponse != nil {
		if result, err = s.OnResponse(ctx, call.Method, result); err != nil {
			return nil, http.StatusInternalServerError, "soap:Server", err
		}
	}
	return result, http.StatusOK, "", nil
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
// of a confusing XML parse error. Call is the one-call case of a request
// of several calls (Invoker.SendShare).
func (c *Client) Call(ctx context.Context, method string, params []*doc.Node) ([]*doc.Node, error) {
	results, fault, err := c.call(ctx, []Request{{Method: method, Namespace: c.Namespace, Params: params}})
	switch {
	case err != nil:
		return nil, err
	case fault != nil:
		return nil, fault
	}
	return results[0], nil
}

// call sends calls, one body entry each, in one request and decodes the
// reply: the results of the calls it answered, a prefix of calls, then the
// fault that ended it, if one did. The request carries the calls whose
// entries fit in maxShareBytes, and always the first; the reply answers
// none of the others. A non-nil error fails the whole request; its text
// names the first call. A fault surfaces whatever the status code, and the
// results before it with it; a reply without a fault must come with 200.
//
// The request is rendered into a pooled buffer and sent from one
// exact-size copy: the transport may read the body after Do returns, and
// reads it again through GetBody to retry. The response is read, under
// MaxResponseBytes, into the pooled buffer and decoded in place.
func (c *Client) call(ctx context.Context, calls []Request) (results [][]*doc.Node, fault *Fault, err error) {
	method := calls[0].Method
	httpc := c.HTTP
	if httpc == nil {
		httpc = DefaultClient
	}
	buf := getBuf()
	defer putBuf(buf)
	var sent int
	if *buf, sent, err = appendRequest(*buf, calls, maxShareBytes); err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(bytes.Clone(*buf)))
	if err != nil {
		return nil, nil, fmt.Errorf("soap: calling %s at %s: %w", method, c.Endpoint, err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	// Propagate the caller's trace so the remote peer's spans, audit
	// events, and request logs join this request's trace ID.
	telemetry.InjectTraceContext(ctx, req.Header)
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("soap: calling %s at %s: %w", method, c.Endpoint, err)
	}
	defer resp.Body.Close()
	limit := c.MaxResponseBytes
	if limit == 0 {
		limit = DefaultMaxResponseBytes
	}
	if *buf, err = readBody((*buf)[:0], resp.Body, max(limit, 0)); err != nil { // a negative limit reads all
		return nil, nil, fmt.Errorf("soap: %s at %s: reading response: %w", method, c.Endpoint, err)
	}
	body := *buf

	ct := resp.Header.Get("Content-Type")
	if xmlContentType(ct) {
		results, fault, perr := decodeResponses(body, sent)
		if perr == nil {
			if fault == nil && resp.StatusCode != http.StatusOK {
				// A well-formed response on an error status is a broken
				// server or intermediary; do not trust the payload.
				return nil, nil, fmt.Errorf("soap: %s at %s: HTTP %s with a response body", method, c.Endpoint, resp.Status)
			}
			return results, fault, nil // a fault is server-reported, any status code
		}
		if resp.StatusCode == http.StatusOK {
			return nil, nil, fmt.Errorf("soap: %s at %s: %w", method, c.Endpoint, perr)
		}
		// fall through: non-OK status with unparsable XML body
	}
	return nil, nil, fmt.Errorf("soap: %s at %s: HTTP %s (Content-Type %q): %s",
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
// core.Invoker, making remote services directly usable by the rewriter,
// and core.RoundSender: the calls of a rewriting's first round that go to
// one endpoint share a request.
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
// request, so cancelling the rewrite tears down the connection. A call of
// the first round riding on ctx goes out with the unsent planned calls for
// its endpoint, up to MaxEntries entries and maxShareBytes, in one
// request, and a planned call a reply already answered is answered at once
// (core.Round.Send). Any other call, and a call whose context carries a
// deadline, is a request of its own.
func (i *Invoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if res, ok, err := core.RoundFrom(ctx).Send(ctx, call, i, MaxEntries); ok {
		return res, err
	}
	endpoint := i.Route(call)
	if endpoint == "" {
		return nil, fmt.Errorf("soap: no endpoint for %q", call.Label)
	}
	c := Client{Endpoint: endpoint, Namespace: i.namespace(call), HTTP: i.HTTP, MaxResponseBytes: i.MaxResponseBytes}
	return c.Call(ctx, call.Label, call.Children)
}

// Route implements core.RoundSender: the endpoint a call goes to, empty
// when it has none.
func (i *Invoker) Route(call *doc.Node) string {
	if call.Service != nil && call.Service.Endpoint != "" {
		return call.Service.Endpoint
	}
	return i.Default
}

// namespace returns the namespace that qualifies a call's body entry.
func (i *Invoker) namespace(call *doc.Node) string {
	if call.Service != nil && call.Service.Namespace != "" {
		return call.Service.Namespace
	}
	return i.Namespace
}

// SendShare implements core.RoundSender: it sends calls, which share one
// endpoint, as the body entries of one request, each in its own
// namespace: the first call, and each next one while the envelope stays
// within maxShareBytes.
func (i *Invoker) SendShare(ctx context.Context, calls []*doc.Node) ([][]*doc.Node, error, error) {
	endpoint := i.Route(calls[0])
	if endpoint == "" {
		return nil, nil, fmt.Errorf("soap: no endpoint for %q", calls[0].Label)
	}
	entries := make([]Request, len(calls))
	for k, call := range calls {
		entries[k] = Request{Method: call.Label, Namespace: i.namespace(call), Params: call.Children}
	}
	c := Client{Endpoint: endpoint, HTTP: i.HTTP, MaxResponseBytes: i.MaxResponseBytes}
	results, fault, err := c.call(ctx, entries)
	if fault == nil {
		return results, nil, err
	}
	return results, fault, err
}

var (
	_ core.Invoker     = (*Invoker)(nil)
	_ core.RoundSender = (*Invoker)(nil)
)
