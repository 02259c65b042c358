// Package wsdl implements WSDL_int, the paper's extension of WSDL whose
// message types may describe intensional data: a service description embeds
// an XML Schema_int document in its <types> section, and every declared
// function of that schema is an operation of the service. This is the
// artifact the Schema Enforcement module checks call parameters and results
// against.
//
// The subset is deliberately flat — definitions, embedded types, service
// location — because the interesting structure (operations and their
// intensional signatures) lives entirely in the embedded schema.
package wsdl

import (
	"fmt"
	"io"
	"strings"

	"axml/internal/schema"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// Namespace is the WSDL 1.1 namespace (accepted but not required on input).
const Namespace = "http://schemas.xmlsoap.org/wsdl/"

// Description is a WSDL_int service description.
type Description struct {
	// Name is the service name.
	Name string
	// TargetNamespace stamps SOAP body elements of the service.
	TargetNamespace string
	// Endpoint is the service location (soap:address).
	Endpoint string
	// Schema declares the service's element types, functions (operations)
	// and function patterns.
	Schema *schema.Schema
}

// Operations lists the operation names (the declared functions), sorted.
func (d *Description) Operations() []string { return d.Schema.SortedFuncs() }

// Write renders the description.
func Write(w io.Writer, d *Description, predNames map[string]string) error {
	types, err := xsdint.String(d.Schema, predNames)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<definitions xmlns=%q name=%s targetNamespace=%s>\n",
		Namespace, xsdint.QuoteAttr(d.Name), xsdint.QuoteAttr(d.TargetNamespace))
	b.WriteString("  <types>\n")
	for _, line := range strings.Split(strings.TrimRight(types, "\n"), "\n") {
		b.WriteString("    ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("  </types>\n")
	fmt.Fprintf(&b, "  <service name=%s>\n", xsdint.QuoteAttr(d.Name))
	if d.Endpoint != "" {
		fmt.Fprintf(&b, "    <address location=%s/>\n", xsdint.QuoteAttr(d.Endpoint))
	}
	b.WriteString("  </service>\n</definitions>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func String(d *Description, predNames map[string]string) (string, error) {
	var b strings.Builder
	if err := Write(&b, d, predNames); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Parse reads a WSDL_int description.
func Parse(r io.Reader, opt xsdint.Options) (*Description, error) {
	tz := xmlio.NewTokenizer(r)
	defer tz.Close()
	d := &Description{}
	depth := 0
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			if d.Schema == nil {
				return nil, fmt.Errorf("wsdl: no embedded schema found")
			}
			return d, nil
		}
		if err != nil {
			return nil, fmt.Errorf("wsdl: %w", err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			depth++
			switch string(tok.Local) {
			case "definitions":
				if depth != 1 {
					return nil, fmt.Errorf("wsdl: nested <definitions>")
				}
				for _, a := range tok.Attr {
					switch string(a.Local) {
					case "name":
						d.Name = string(a.Value)
					case "targetNamespace":
						d.TargetNamespace = string(a.Value)
					}
				}
			case "schema":
				s, err := xsdint.ParseAt(tz, tok, opt)
				if err != nil {
					return nil, err
				}
				d.Schema = s
				depth-- // ParseAt consumed the matching end element
			case "service":
				if v := tok.Value("name"); v != "" && d.Name == "" {
					d.Name = v
				}
			case "address":
				if v := tok.Value("location"); v != "" {
					d.Endpoint = v
				}
			}
		case xmlio.KindEnd:
			depth--
		}
	}
}

// ParseString parses from a string.
func ParseString(src string, opt xsdint.Options) (*Description, error) {
	return Parse(strings.NewReader(src), opt)
}
