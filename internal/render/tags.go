package render

import (
	"fmt"
	"strings"

	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// esc escapes text content.
func esc(v mvc.Value) string { return dom.EscapeText(mvc.FormatParam(v)) }

// firstField returns the object's leading display value.
func firstField(fields []string, values mvc.Row) string {
	for _, f := range fields {
		if f == "oid" {
			continue
		}
		if v, ok := values[f]; ok {
			return mvc.FormatParam(v)
		}
	}
	if v, ok := values["oid"]; ok {
		return mvc.FormatParam(v)
	}
	return ""
}

// anchorFor renders the first anchor of the unit applied to one object,
// or the plain label when the unit has no outgoing links.
func anchorFor(rc *Context, unitID string, fields []string, values mvc.Row, label string) string {
	if label == "" {
		label = firstField(fields, values)
	}
	anchors := rc.Anchors(unitID)
	if len(anchors) == 0 {
		return dom.EscapeText(label)
	}
	a := anchors[0]
	if a.Label != "" {
		label = a.Label
	}
	return fmt.Sprintf(`<a href="%s">%s</a>`,
		dom.EscapeAttr(rc.AnchorURL(a, values)), dom.EscapeText(label))
}

// renderDataTag shows one object as a definition list (Figure 2's
// "Volume data" block).
func renderDataTag(rc *Context, bean *mvc.UnitBean) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-data" data-unit="%s">`, dom.EscapeAttr(bean.UnitID))
	if bean.Missing || len(bean.Nodes) == 0 {
		b.WriteString(`<span class="webml-empty">no content</span></div>`)
		return b.String()
	}
	values := bean.Nodes[0].Values
	b.WriteString("<dl>")
	for _, f := range bean.Fields {
		if f == "oid" {
			continue
		}
		fmt.Fprintf(&b, "<dt>%s</dt><dd>%s</dd>", dom.EscapeText(f), esc(values[f]))
	}
	b.WriteString("</dl>")
	for _, a := range rc.Anchors(bean.UnitID) {
		label := a.Label
		if label == "" {
			label = "more"
		}
		fmt.Fprintf(&b, `<a class="webml-link" href="%s">%s</a>`,
			dom.EscapeAttr(rc.AnchorURL(a, values)), dom.EscapeText(label))
	}
	b.WriteString("</div>")
	return b.String()
}

// renderIndexTag shows a list of objects; hierarchical indexes nest
// sub-lists, with the unit's outgoing anchor applied at the deepest level
// (Figure 1: the link to the paper page leaves from the nested papers).
func renderIndexTag(rc *Context, bean *mvc.UnitBean) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-index" data-unit="%s">`, dom.EscapeAttr(bean.UnitID))
	if bean.Missing || len(bean.Nodes) == 0 {
		b.WriteString(`<span class="webml-empty">no entries</span></div>`)
		return b.String()
	}
	depth := len(bean.LevelFields)
	renderList(rc, &b, bean, bean.Nodes, bean.Fields, 0, depth)
	b.WriteString("</div>")
	return b.String()
}

func renderList(rc *Context, b *strings.Builder, bean *mvc.UnitBean, nodes []mvc.Node, fields []string, level, depth int) {
	fmt.Fprintf(b, `<ul class="webml-level-%d">`, level)
	for _, n := range nodes {
		b.WriteString("<li>")
		if level == depth {
			// Leaf level: apply the unit's anchor.
			b.WriteString(anchorFor(rc, bean.UnitID, fields, n.Values, ""))
		} else {
			b.WriteString(dom.EscapeText(firstField(fields, n.Values)))
		}
		if len(n.Children) > 0 && level < depth {
			renderList(rc, b, bean, n.Children, bean.LevelFields[level], level+1, depth)
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul>")
}

// renderMultidataTag shows objects as a table with all fields.
func renderMultidataTag(rc *Context, bean *mvc.UnitBean) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-multidata" data-unit="%s">`, dom.EscapeAttr(bean.UnitID))
	if bean.Missing || len(bean.Nodes) == 0 {
		b.WriteString(`<span class="webml-empty">no content</span></div>`)
		return b.String()
	}
	b.WriteString(`<table><tr>`)
	for _, f := range bean.Fields {
		if f == "oid" {
			continue
		}
		fmt.Fprintf(&b, "<th>%s</th>", dom.EscapeText(f))
	}
	anchors := rc.Anchors(bean.UnitID)
	if len(anchors) > 0 {
		b.WriteString("<th></th>")
	}
	b.WriteString("</tr>")
	for _, n := range bean.Nodes {
		b.WriteString("<tr>")
		for _, f := range bean.Fields {
			if f == "oid" {
				continue
			}
			fmt.Fprintf(&b, "<td>%s</td>", esc(n.Values[f]))
		}
		if len(anchors) > 0 {
			fmt.Fprintf(&b, `<td>%s</td>`, anchorFor(rc, bean.UnitID, bean.Fields, n.Values, "view"))
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table></div>")
	return b.String()
}

// renderMultichoiceTag shows objects with checkboxes submitting to the
// unit's first anchor (typically a connect/disconnect operation).
func renderMultichoiceTag(rc *Context, bean *mvc.UnitBean) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-multichoice" data-unit="%s">`, dom.EscapeAttr(bean.UnitID))
	if bean.Missing || len(bean.Nodes) == 0 {
		b.WriteString(`<span class="webml-empty">no entries</span></div>`)
		return b.String()
	}
	anchors := rc.Anchors(bean.UnitID)
	checkName := "oid"
	action := ""
	if len(anchors) > 0 {
		action = "/" + anchors[0].Action
		if len(anchors[0].Params) > 0 {
			checkName = anchors[0].Params[0].Target
		}
	}
	fmt.Fprintf(&b, `<form method="get" action="%s">`, dom.EscapeAttr(action))
	for _, n := range bean.Nodes {
		fmt.Fprintf(&b, `<label><input type="checkbox" name="%s" value="%s"> %s</label>`,
			dom.EscapeAttr(checkName), dom.EscapeAttr(mvc.FormatParam(n.Values["oid"])),
			dom.EscapeText(firstField(bean.Fields, n.Values)))
	}
	b.WriteString(`<input type="submit" value="apply"></form></div>`)
	return b.String()
}

// renderScrollerTag shows one window of a result plus prev/next anchors
// that re-request the same page with a shifted offset.
func renderScrollerTag(rc *Context, bean *mvc.UnitBean) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-scroller" data-unit="%s">`, dom.EscapeAttr(bean.UnitID))
	if bean.Missing {
		b.WriteString(`<span class="webml-empty">no query</span></div>`)
		return b.String()
	}
	fmt.Fprintf(&b, `<div class="webml-scroller-info">%d-%d of %d</div>`,
		bean.Offset+1, bean.Offset+len(bean.Nodes), bean.Total)
	b.WriteString("<ol>")
	for _, n := range bean.Nodes {
		fmt.Fprintf(&b, "<li>%s</li>", anchorFor(rc, bean.UnitID, bean.Fields, n.Values, ""))
	}
	b.WriteString("</ol>")
	// Window navigation: same page action, shifted offset, preserving the
	// other request parameters.
	window := func(offset int, label string) {
		if offset < 0 || (bean.Total > 0 && offset >= bean.Total) || offset == bean.Offset {
			return
		}
		params := map[string]string{}
		for k, v := range rc.Request.Params {
			if !strings.HasPrefix(k, "_") {
				params[k] = mvc.FormatParam(v)
			}
		}
		params["offset"] = fmt.Sprintf("%d", offset)
		href := mvc.ActionURL("page/"+rc.Page.ID, params)
		fmt.Fprintf(&b, `<a class="webml-scroll" href="%s">%s</a>`, dom.EscapeAttr(href), dom.EscapeText(label))
	}
	window(bean.Offset-bean.PageSize, "prev")
	window(bean.Offset+bean.PageSize, "next")
	b.WriteString("</div>")
	return b.String()
}

// renderEntryTag shows the form of an entry unit. Field names are mapped
// through the unit's first anchor so the submitted parameter names match
// the target's inputs; validation errors and sticky values reappear.
func renderEntryTag(rc *Context, bean *mvc.UnitBean) string {
	anchors := rc.Anchors(bean.UnitID)
	action := ""
	rename := map[string]string{}
	if len(anchors) > 0 {
		action = "/" + anchors[0].Action
		for _, p := range anchors[0].Params {
			rename[p.Source] = p.Target
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="webml-unit webml-entry" data-unit="%s"><form method="get" action="%s">`,
		dom.EscapeAttr(bean.UnitID), dom.EscapeAttr(action))
	for _, f := range bean.FormFields {
		name := f.Name
		if to, ok := rename[f.Name]; ok {
			name = to
		}
		fmt.Fprintf(&b, `<label>%s <input type="text" name="%s" value="%s"`,
			dom.EscapeText(f.Name), dom.EscapeAttr(name), dom.EscapeAttr(f.Value))
		if f.Required {
			b.WriteString(` data-required="true"`)
		}
		b.WriteString("></label>")
		if msg, ok := bean.Errors[f.Name]; ok {
			fmt.Fprintf(&b, `<span class="webml-field-error">%s</span>`, dom.EscapeText(msg))
		}
	}
	b.WriteString(`<input type="submit" value="submit"></form></div>`)
	return b.String()
}
