package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"axml/internal/doc"
)

// refParse is Parse as it was built on encoding/xml, kept as the reference
// the tokenizer-based parser is fuzzed against. It stops reading at the end
// of the root element and does not bound nesting; refTrailing reports what
// follows the root.
func refParse(data []byte) (*doc.Node, *xml.Decoder, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, dec, fmt.Errorf("xmlio: no root element")
		}
		if err != nil {
			return nil, dec, fmt.Errorf("xmlio: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n, err := refElement(dec, t)
			return n, dec, err
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, dec, fmt.Errorf("xmlio: stray text %q before root element", string(t))
			}
		}
	}
}

// refTrailing reports whether only white space, comments and processing
// instructions follow the root element refParse returned.
func refTrailing(dec *xml.Decoder) bool {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case xml.Comment, xml.ProcInst:
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return false
			}
		default:
			return false
		}
	}
}

func refElement(dec *xml.Decoder, start xml.StartElement) (*doc.Node, error) {
	if start.Name.Space == Namespace {
		if start.Name.Local != "fun" {
			return nil, fmt.Errorf("xmlio: unexpected intensional element <int:%s>", start.Name.Local)
		}
		return refFun(dec, start)
	}
	n := doc.Elem(start.Name.Local)
	children, err := refChildren(dec, start.Name)
	if err != nil {
		return nil, err
	}
	n.Children = children
	return n, nil
}

func refChildren(dec *xml.Decoder, parent xml.Name) ([]*doc.Node, error) {
	var children []*doc.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <%s>: %w", parent.Local, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := refElement(dec, t)
			if err != nil {
				return nil, err
			}
			children = append(children, child)
		case xml.CharData:
			if s := strings.TrimSpace(string(t)); s != "" {
				children = append(children, doc.TextNode(s))
			}
		case xml.EndElement:
			return children, nil
		}
	}
}

func refFun(dec *xml.Decoder, start xml.StartElement) (*doc.Node, error) {
	ref := doc.ServiceRef{}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "endpointURL":
			ref.Endpoint = a.Value
		case "methodName":
			ref.Method = a.Value
		case "namespaceURI":
			ref.Namespace = a.Value
		}
	}
	if ref.Method == "" {
		return nil, fmt.Errorf("xmlio: <int:fun> without methodName")
	}
	var n *doc.Node
	if ref.Endpoint == "" && ref.Namespace == "" {
		n = doc.Call(ref.Method)
	} else {
		n = doc.CallAt(ref)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <int:fun %s>: %w", ref.Method, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == Namespace && t.Name.Local == "params" {
				params, err := refParams(dec)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, params...)
				continue
			}
			return nil, fmt.Errorf("xmlio: unexpected <%s> inside <int:fun>", t.Name.Local)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xmlio: stray text inside <int:fun>")
			}
		case xml.EndElement:
			return n, nil
		}
	}
}

func refParams(dec *xml.Decoder) ([]*doc.Node, error) {
	var out []*doc.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <int:params>: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != Namespace || t.Name.Local != "param" {
				return nil, fmt.Errorf("xmlio: unexpected <%s> inside <int:params>", t.Name.Local)
			}
			kids, err := refChildren(dec, t.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, kids...)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xmlio: stray text inside <int:params>")
			}
		case xml.EndElement:
			return out, nil
		}
	}
}
