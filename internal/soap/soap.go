// Package soap implements the minimal SOAP 1.1 transport the Active XML
// system exchanges intensional documents over: document-style envelopes
// whose bodies carry a method element with an intensional parameter forest,
// an http.Handler exposing a service registry, and a client-side
// core.Invoker that routes function nodes to their endpoints.
//
// The envelope subset is deliberately small — no headers, standard Fault
// reporting — which is all the paper's data-exchange scenario requires;
// everything interesting rides inside the intensional XML payload. A
// request carries one body entry per call, as SOAP 1.1 allows: one call is
// plain single-entry SOAP, and the calls of a rewriting's first round that
// go to one endpoint share a request (see Invoker). The reply holds one
// response entry per call, in order, up to the first call that failed,
// whose soap:Fault ends it.
package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"

	"axml/internal/doc"
	"axml/internal/xmlio"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// Fault is a decoded SOAP fault.
type Fault struct {
	Code   string
	String string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("soap: fault %s: %s", f.Code, f.String)
}

// Request is one decoded call: a body entry of a request envelope.
type Request struct {
	Method    string
	Namespace string
	Params    []*doc.Node
}

// MaxEntries caps the body entries of one request. A server refuses a
// request carrying more before it runs any; Invoker splits a larger share
// of a round over several requests.
const MaxEntries = 64

// maxShareBytes caps the envelope of a request carrying several calls: a
// share of a round grows by whole entries only while it stays within it.
// Past it, a request's bytes, not its round trip, dominate its cost, and
// a server that lowers MaxRequestBytes far below its default still admits
// a share that holds no single call larger than it.
const maxShareBytes = 64 << 10

// WriteRequest encodes a call envelope.
func WriteRequest(w io.Writer, method, namespace string, params []*doc.Node) error {
	return writeEnvelope(w, func(b []byte) ([]byte, error) {
		b, _, err := appendRequest(b, []Request{{Method: method, Namespace: namespace, Params: params}}, 0)
		return b, err
	})
}

// WriteResponse encodes a reply envelope; the body element is
// <m:<method>Response>.
func WriteResponse(w io.Writer, method, namespace string, result []*doc.Node) error {
	return writeEnvelope(w, func(b []byte) ([]byte, error) {
		b = append(b, envelopeOpen...)
		b, err := appendEntry(b, method, "Response", namespace, result)
		return append(b, envelopeClose...), err
	})
}

// WriteFault encodes a fault envelope.
func WriteFault(w io.Writer, code, msg string) error {
	return writeEnvelope(w, func(b []byte) ([]byte, error) { return appendFault(b, code, msg), nil })
}

// writeEnvelope renders an envelope by appending into a pooled buffer and
// writes it to w in one call.
func writeEnvelope(w io.Writer, render func([]byte) ([]byte, error)) error {
	b := getBuf()
	defer putBuf(b)
	var err error
	if *b, err = render(*b); err != nil {
		return err
	}
	_, err = w.Write(*b)
	return err
}

// envelopeOpen starts every call and reply envelope, up to its body
// entries; faultOpen starts a reply that is a fault alone. envelopeClose
// ends both.
const (
	envelopeOpen  = xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + `" xmlns:int="` + xmlio.Namespace + "\">\n  <soap:Body>\n"
	faultOpen     = xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + "\">\n  <soap:Body>\n"
	envelopeClose = "  </soap:Body>\n</soap:Envelope>\n"
)

// appendRequest appends the envelope of a request carrying one body entry
// per call, and returns how many calls it carries: all of them, or, when
// limit is positive, the first and each next one whose entry keeps the
// envelope within limit bytes.
func appendRequest(b []byte, calls []Request, limit int) ([]byte, int, error) {
	start := len(b)
	b = append(b, envelopeOpen...)
	for i := range calls {
		mark := len(b)
		var err error
		if b, err = appendEntry(b, calls[i].Method, "", calls[i].Namespace, calls[i].Params); err != nil {
			return b, i, err
		}
		if i > 0 && limit > 0 && len(b)-start+len(envelopeClose) > limit {
			return append(b[:mark], envelopeClose...), i, nil
		}
	}
	return append(b, envelopeClose...), len(calls), nil
}

// appendEntry appends one body entry, named method followed by suffix and
// holding forest. A namespace qualifies the entry with the prefix m,
// declared on the entry itself.
func appendEntry(b []byte, method, suffix, namespace string, forest []*doc.Node) ([]byte, error) {
	prefix := ""
	if namespace != "" {
		// A prefix can qualify only a colon-free name.
		if strings.Contains(method, ":") {
			return b, fmt.Errorf("soap: body element %q cannot take namespace %q", method+suffix, namespace)
		}
		prefix = "m:"
	}
	b = append(append(append(append(b, "    <"...), prefix...), method...), suffix...)
	if namespace != "" {
		b = append(b, ` xmlns:m="`...)
		b = append(xmlio.AppendEscaped(b, namespace), '"')
	}
	b = append(b, ">\n"...)
	b = xmlio.AppendFragment(b, forest, 3, false)
	b = append(append(append(append(b, "    </"...), prefix...), method...), suffix...)
	return append(b, ">\n"...), nil
}

// appendFault appends a fault envelope.
func appendFault(b []byte, code, msg string) []byte {
	return append(appendFaultEntry(append(b, faultOpen...), code, msg), envelopeClose...)
}

// appendFaultEntry appends a soap:Fault body entry.
func appendFaultEntry(b []byte, code, msg string) []byte {
	b = append(b, "    <soap:Fault>\n      <faultcode>"...)
	b = append(xmlio.AppendEscaped(b, code), "</faultcode>\n      <faultstring>"...)
	b = xmlio.AppendEscaped(b, msg)
	return append(b, "</faultstring>\n    </soap:Fault>\n"...)
}

// bufPool recycles the buffers envelopes are rendered into and bodies are
// read into; putBuf drops a buffer grown past maxPooledBuf rather than
// keep it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// readBody appends all of r to dst. A positive limit caps what it reads:
// a response longer than limit bytes fails once limit+1 have been read.
func readBody(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):cap(dst)]
		if left := limit + 1 - int64(len(dst)); limit > 0 && int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if limit > 0 && int64(len(dst)) > limit {
			return dst, fmt.Errorf("response body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadRequest decodes the first call of a request envelope. It reads all
// of r, then decodes the bytes in place.
func ReadRequest(r io.Reader) (*Request, error) {
	b := getBuf()
	defer putBuf(b)
	var err error
	if *b, err = readBody(*b, r, 0); err != nil {
		return nil, fmt.Errorf("soap: reading envelope: %w", err)
	}
	var req *Request
	err = decodeEntries(*b, 1, func(e Request, fault *Fault) error {
		if fault != nil {
			return fault
		}
		req = &e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse decodes a reply envelope, returning the result forest; SOAP
// faults surface as *Fault errors. It reads all of r, then decodes the
// bytes in place.
func ReadResponse(r io.Reader) ([]*doc.Node, error) {
	b := getBuf()
	defer putBuf(b)
	var err error
	if *b, err = readBody(*b, r, 0); err != nil {
		return nil, fmt.Errorf("soap: reading envelope: %w", err)
	}
	return decodeResponse(*b)
}

// decodeRequests decodes every call of a request envelope held in data,
// refusing one of more than max.
func decodeRequests(data []byte, max int) ([]Request, error) {
	var calls []Request
	err := decodeEntries(data, max+1, func(e Request, fault *Fault) error {
		if fault != nil {
			return fault
		}
		if len(calls) == max {
			return fmt.Errorf("soap: request carries more than %d body entries", max)
		}
		calls = append(calls, e)
		return nil
	})
	return calls, err
}

// decodeResponse decodes a reply envelope to one call held in data.
func decodeResponse(data []byte) ([]*doc.Node, error) {
	var forest []*doc.Node
	err := decodeEntries(data, 1, func(e Request, fault *Fault) error {
		if fault != nil {
			return fault
		}
		forest = e.Params
		return isResponse(e)
	})
	if err != nil {
		return nil, err
	}
	return forest, nil
}

// decodeResponses decodes the reply, held in data, to a request of n
// calls: the results of its response entries, at most n, then the fault
// that ended it, if one did. A reply may answer fewer calls than it was
// sent, but never none.
func decodeResponses(data []byte, n int) (results [][]*doc.Node, fault *Fault, err error) {
	err = decodeEntries(data, n, func(e Request, f *Fault) error {
		if f != nil {
			fault = f
			return nil
		}
		results = append(results, e.Params)
		return isResponse(e)
	})
	if err != nil {
		return nil, nil, err
	}
	return results, fault, nil
}

// isResponse checks that a body entry of a reply is a response.
func isResponse(e Request) error {
	if !strings.HasSuffix(e.Method, "Response") {
		return fmt.Errorf("soap: body element %q is not a response", e.Method)
	}
	return nil
}

// decodeEntries walks Envelope/Body and hands each body entry, up to max,
// to each: a call or response entry as a Request, or a soap:Fault, which
// ends the walk. The body must hold at least one entry. It scans data in
// place and reads it only as far as the end of the last entry it decodes;
// nothing it hands over refers to data. An error of each ends the walk and
// is returned.
func decodeEntries(data []byte, max int, each func(Request, *Fault) error) error {
	tz := xmlio.NewBytesTokenizer(data)
	defer tz.Close()
	if err := expectStart(tz, EnvelopeNS, "Envelope"); err != nil {
		return err
	}
	if err := expectStart(tz, EnvelopeNS, "Body"); err != nil {
		return err
	}
	for i := 0; i < max; i++ {
		start, err := nextTag(tz)
		if err == nil && start.Kind == xmlio.KindEnd {
			if i > 0 {
				return nil // the body's end
			}
			err = unexpectedEnd(start)
		}
		if err != nil && i == 0 {
			return fmt.Errorf("soap: empty body: %w", err)
		}
		if err != nil {
			return fmt.Errorf("soap: after body entry %d: %w", i, err)
		}
		if start.Space == EnvelopeNS && string(start.Local) == "Fault" {
			f, err := readFault(tz)
			if err != nil {
				return err
			}
			return each(Request{}, f)
		}
		e := Request{Namespace: start.Space}
		if e.Method, e.Params, err = xmlio.ParseChildrenAt(tz, start); err != nil {
			return fmt.Errorf("soap: body entry: %w", err)
		}
		if err := each(e, nil); err != nil {
			return err
		}
	}
	return nil
}

func readFault(tz *xmlio.Tokenizer) (*Fault, error) {
	f := &Fault{}
	depth := 1
	var field *string
	for depth > 0 {
		tok, err := tz.Next()
		if err != nil {
			return nil, fmt.Errorf("soap: truncated fault: %w", err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			depth++
			switch string(tok.Local) {
			case "faultcode":
				field = &f.Code
			case "faultstring":
				field = &f.String
			default:
				field = nil
			}
		case xmlio.KindText:
			if field != nil {
				*field += string(bytes.TrimSpace(tok.Data))
			}
		case xmlio.KindEnd:
			depth--
			field = nil
		}
	}
	return f, nil
}

// nextStart returns the next start tag, skipping white space, comments and
// processing instructions.
func nextStart(tz *xmlio.Tokenizer) (*xmlio.Token, error) {
	tok, err := nextTag(tz)
	if err == nil && tok.Kind == xmlio.KindEnd {
		return nil, unexpectedEnd(tok)
	}
	return tok, err
}

// nextTag returns the next start or end tag, skipping white space,
// comments and processing instructions.
func nextTag(tz *xmlio.Tokenizer) (*xmlio.Token, error) {
	for {
		tok, err := tz.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case xmlio.KindStart, xmlio.KindEnd:
			return tok, nil
		case xmlio.KindText:
			if len(bytes.TrimSpace(tok.Data)) > 0 {
				return nil, fmt.Errorf("soap: unexpected text %q", tok.Data)
			}
		}
	}
}

// unexpectedEnd is the error of an end tag where a start tag belongs.
func unexpectedEnd(tok *xmlio.Token) error {
	return fmt.Errorf("soap: unexpected </%s>", tok.Local)
}

func expectStart(tz *xmlio.Tokenizer, space, local string) error {
	start, err := nextStart(tz)
	if err != nil {
		return fmt.Errorf("soap: expected <%s>: %w", local, err)
	}
	if start.Space != space || string(start.Local) != local {
		return fmt.Errorf("soap: expected <%s> in %s, got <%s> in %s", local, space, start.Local, start.Space)
	}
	return nil
}
