// Package soap implements the minimal SOAP 1.1 transport the Active XML
// system exchanges intensional documents over: document-style envelopes
// whose bodies carry a method element with an intensional parameter forest,
// an http.Handler exposing a service registry, and a client-side
// core.Invoker that routes function nodes to their endpoints.
//
// The envelope subset is deliberately small — one body entry, no headers,
// standard Fault reporting — which is all the paper's data-exchange scenario
// requires; everything interesting rides inside the intensional XML payload.
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

// Request is a decoded call request.
type Request struct {
	Method    string
	Namespace string
	Params    []*doc.Node
}

// WriteRequest encodes a call envelope.
func WriteRequest(w io.Writer, method, namespace string, params []*doc.Node) error {
	return writeEnvelope(w, method, "", namespace, params)
}

// WriteResponse encodes a reply envelope; the body element is
// <m:<method>Response>.
func WriteResponse(w io.Writer, method, namespace string, result []*doc.Node) error {
	return writeEnvelope(w, method, "Response", namespace, result)
}

// WriteFault encodes a fault envelope.
func WriteFault(w io.Writer, code, msg string) error {
	b := getBuf()
	defer putBuf(b)
	*b = appendFault(*b, code, msg)
	_, err := w.Write(*b)
	return err
}

// writeEnvelope renders an envelope into a pooled buffer and writes it to
// w in one call.
func writeEnvelope(w io.Writer, method, suffix, namespace string, forest []*doc.Node) error {
	b := getBuf()
	defer putBuf(b)
	var err error
	if *b, err = appendEnvelope(*b, method, suffix, namespace, forest); err != nil {
		return err
	}
	_, err = w.Write(*b)
	return err
}

// envelopeOpen starts every call and reply envelope, up to the name of its
// body entry; envelopeClose ends it.
const (
	envelopeOpen = xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + `" xmlns:int="` + xmlio.Namespace + "\">\n" +
		"  <soap:Body>\n    <"
	envelopeClose = "  </soap:Body>\n</soap:Envelope>\n"
)

// appendEnvelope appends the envelope whose body entry, named method
// followed by suffix, holds forest. A namespace qualifies the entry with
// the prefix m.
func appendEnvelope(b []byte, method, suffix, namespace string, forest []*doc.Node) ([]byte, error) {
	prefix := ""
	if namespace != "" {
		// A prefix can qualify only a colon-free name.
		if strings.Contains(method, ":") {
			return b, fmt.Errorf("soap: body element %q cannot take namespace %q", method+suffix, namespace)
		}
		prefix = "m:"
	}
	b = append(b, envelopeOpen...)
	b = append(append(append(b, prefix...), method...), suffix...)
	if namespace != "" {
		b = append(b, ` xmlns:m="`...)
		b = append(xmlio.AppendEscaped(b, namespace), '"')
	}
	b = append(b, ">\n"...)
	b = xmlio.AppendFragment(b, forest, 3, false)
	b = append(append(append(append(b, "    </"...), prefix...), method...), suffix...)
	return append(b, ">\n"+envelopeClose...), nil
}

// appendFault appends a fault envelope.
func appendFault(b []byte, code, msg string) []byte {
	b = append(b, xml.Header+`<soap:Envelope xmlns:soap="`+EnvelopeNS+"\">\n"+
		"  <soap:Body>\n    <soap:Fault>\n      <faultcode>"...)
	b = append(xmlio.AppendEscaped(b, code), "</faultcode>\n      <faultstring>"...)
	b = xmlio.AppendEscaped(b, msg)
	return append(b, "</faultstring>\n    </soap:Fault>\n"+envelopeClose...)
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

// ReadRequest decodes a call envelope. It reads all of r, then decodes
// the bytes in place.
func ReadRequest(r io.Reader) (*Request, error) {
	b := getBuf()
	defer putBuf(b)
	var err error
	if *b, err = readBody(*b, r, 0); err != nil {
		return nil, fmt.Errorf("soap: reading envelope: %w", err)
	}
	method, ns, forest, err := decodeRequest(*b)
	if err != nil {
		return nil, err
	}
	return &Request{Method: method, Namespace: ns, Params: forest}, nil
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

// decodeRequest decodes a call envelope held in data.
func decodeRequest(data []byte) (method, namespace string, params []*doc.Node, err error) {
	method, namespace, params, fault, err := decodeEnvelope(data)
	if err != nil {
		return "", "", nil, err
	}
	if fault != nil {
		return "", "", nil, fault
	}
	return method, namespace, params, nil
}

// decodeResponse decodes a reply envelope held in data.
func decodeResponse(data []byte) ([]*doc.Node, error) {
	method, _, forest, fault, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	if fault != nil {
		return nil, fault
	}
	if !strings.HasSuffix(method, "Response") {
		return nil, fmt.Errorf("soap: body element %q is not a response", method)
	}
	return forest, nil
}

// decodeEnvelope walks Envelope/Body and decodes the single body entry,
// scanning data in place. It reads data only as far as the end of that
// entry. Nothing it returns refers to data.
func decodeEnvelope(data []byte) (method, namespace string, forest []*doc.Node, fault *Fault, err error) {
	tz := xmlio.NewBytesTokenizer(data)
	defer tz.Close()
	if err := expectStart(tz, EnvelopeNS, "Envelope"); err != nil {
		return "", "", nil, nil, err
	}
	if err := expectStart(tz, EnvelopeNS, "Body"); err != nil {
		return "", "", nil, nil, err
	}
	start, err2 := nextStart(tz)
	if err2 != nil {
		return "", "", nil, nil, fmt.Errorf("soap: empty body: %w", err2)
	}
	if start.Space == EnvelopeNS && string(start.Local) == "Fault" {
		f, err3 := readFault(tz)
		return "", "", nil, f, err3
	}
	method, namespace = string(start.Local), start.Space
	forest, err = xmlio.ParseChildrenAt(tz, method)
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("soap: body entry: %w", err)
	}
	return method, namespace, forest, nil, nil
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
	for {
		tok, err := tz.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case xmlio.KindStart:
			return tok, nil
		case xmlio.KindEnd:
			return nil, fmt.Errorf("soap: unexpected </%s>", tok.Local)
		case xmlio.KindText:
			if len(bytes.TrimSpace(tok.Data)) > 0 {
				return nil, fmt.Errorf("soap: unexpected text %q", tok.Data)
			}
		}
	}
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
