package dom

import (
	"fmt"
	"strings"
)

// Cut serializes the subtree rooted at n, leaving out every element for
// which cut returns true together with its subtree. It returns the
// markup around those elements, one span more than there are cut
// elements (spans[i] precedes cuts[i]), and the cut elements in document
// order. The synthetic "#root" wrapper produced by Parse for
// multi-rooted input is transparent: only its children are serialized.
func (n *Node) Cut(cut func(*Node) bool) (spans []string, cuts []*Node) {
	s := serializer{cut: cut}
	s.node(n)
	return append(s.spans, s.b.String()), s.cuts
}

// String renders the subtree as markup. It implements fmt.Stringer.
func (n *Node) String() string {
	var s serializer
	s.node(n)
	return s.b.String()
}

var _ fmt.Stringer = (*Node)(nil)

type serializer struct {
	b     strings.Builder
	cut   func(*Node) bool
	spans []string
	cuts  []*Node
}

func (s *serializer) node(n *Node) {
	if s.cut != nil && s.cut(n) {
		s.spans = append(s.spans, s.b.String())
		s.cuts = append(s.cuts, n)
		s.b = strings.Builder{}
		return
	}
	switch n.Type {
	case RawNode:
		s.b.WriteString(n.Data)
	case TextNode:
		s.b.WriteString(EscapeText(n.Data))
	case CommentNode:
		s.b.WriteString("<!--")
		s.b.WriteString(n.Data)
		s.b.WriteString("-->")
	case ElementNode:
		if n.Tag == "#root" {
			for _, c := range n.Children {
				s.node(c)
			}
			return
		}
		s.b.WriteString("<")
		s.b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			s.b.WriteString(" ")
			s.b.WriteString(a.Name)
			s.b.WriteString(`="`)
			s.b.WriteString(EscapeAttr(a.Value))
			s.b.WriteString(`"`)
		}
		lower := strings.ToLower(n.Tag)
		if len(n.Children) == 0 && voidElements[lower] {
			s.b.WriteString(">")
			return
		}
		if len(n.Children) == 0 {
			s.b.WriteString("/>")
			return
		}
		s.b.WriteString(">")
		raw := lower == "script" || lower == "style"
		for _, c := range n.Children {
			if raw && c.Type == TextNode {
				s.b.WriteString(c.Data)
				continue
			}
			s.node(c)
		}
		s.b.WriteString("</")
		s.b.WriteString(n.Tag)
		s.b.WriteString(">")
	}
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")

// EscapeText escapes character data for inclusion in markup text content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes a string for inclusion in a double-quoted attribute.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
