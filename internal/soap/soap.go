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
	return writeEnvelope(w, method, namespace, params)
}

// WriteResponse encodes a reply envelope; the body element is
// <m:<method>Response>.
func WriteResponse(w io.Writer, method, namespace string, result []*doc.Node) error {
	return writeEnvelope(w, method+"Response", namespace, result)
}

// WriteFault encodes a fault envelope.
func WriteFault(w io.Writer, code, msg string) error {
	var b strings.Builder
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, "<soap:Envelope xmlns:soap=%q>\n  <soap:Body>\n    <soap:Fault>\n", EnvelopeNS)
	fmt.Fprintf(&b, "      <faultcode>%s</faultcode>\n", escape(code))
	fmt.Fprintf(&b, "      <faultstring>%s</faultstring>\n", escape(msg))
	b.WriteString("    </soap:Fault>\n  </soap:Body>\n</soap:Envelope>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

func writeEnvelope(w io.Writer, bodyElem, namespace string, forest []*doc.Node) error {
	var b strings.Builder
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, "<soap:Envelope xmlns:soap=%q xmlns:int=%q>\n", EnvelopeNS, xmlio.Namespace)
	b.WriteString("  <soap:Body>\n")
	ns, prefix := "", ""
	if namespace != "" {
		// A prefix can qualify only a colon-free name.
		if strings.Contains(bodyElem, ":") {
			return fmt.Errorf("soap: body element %q cannot take namespace %q", bodyElem, namespace)
		}
		ns, prefix = ` xmlns:m="`+escape(namespace)+`"`, "m:"
	}
	fmt.Fprintf(&b, "    <%s%s%s>\n", prefix, bodyElem, ns)
	for _, n := range forest {
		if err := xmlio.WriteFragment(&b, n, 3, false); err != nil {
			return err
		}
	}
	fmt.Fprintf(&b, "    </%s%s>\n", prefix, bodyElem)
	b.WriteString("  </soap:Body>\n</soap:Envelope>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadRequest decodes a call envelope.
func ReadRequest(r io.Reader) (*Request, error) {
	method, ns, forest, fault, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if fault != nil {
		return nil, fault
	}
	return &Request{Method: method, Namespace: ns, Params: forest}, nil
}

// ReadResponse decodes a reply envelope, returning the result forest; SOAP
// faults surface as *Fault errors.
func ReadResponse(r io.Reader) ([]*doc.Node, error) {
	method, _, forest, fault, err := readEnvelope(r)
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

// readEnvelope walks Envelope/Body and decodes the single body entry. It
// reads r only as far as the end of that entry.
func readEnvelope(r io.Reader) (method, namespace string, forest []*doc.Node, fault *Fault, err error) {
	tz := xmlio.NewTokenizer(r)
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
