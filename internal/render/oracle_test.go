package render

import (
	"fmt"
	"strings"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// OracleRender is the View's former per-request algorithm, kept as the
// reference the compiled programs are checked against: parse the
// template, style it for the user agent, replace every custom tag of the
// tree in place, inject the landmark menu into the body and serialize
// behind the error banner. Unit markup comes from the tag renderers
// directly, bypassing the fragment cache.
func OracleRender(e *Engine, pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, edge bool) ([]byte, error) {
	src, ok := e.Repo.Template(pd.Template)
	if !ok {
		return nil, fmt.Errorf("oracle: no template %q", pd.Template)
	}
	tpl, err := dom.Parse(src)
	if err != nil {
		return nil, err
	}
	if e.Styler != nil {
		if tpl, err = e.Styler.Apply(tpl, ctx.UserAgent); err != nil {
			return nil, err
		}
	}
	rc := &Context{Page: pd, State: state, Request: ctx}
	var renderErr error
	tpl.Walk(func(n *dom.Node) bool {
		if renderErr != nil {
			return false
		}
		if n.Type != dom.ElementNode || !strings.HasPrefix(n.Tag, "webml:") {
			return true
		}
		unitID, _ := n.Attr("id")
		if edge {
			src := mvc.FragmentURL(pd.ID, unitID, ctx.Params)
			n.ReplaceWith(dom.NewRaw(`<esi:include src="` + dom.EscapeAttr(src) + `"/>`))
			return false
		}
		bean := state.Beans[unitID]
		if bean == nil {
			n.ReplaceWith(dom.NewComment(" unit " + unitID + " not computed "))
			return false
		}
		markup, err := oracleUnit(e, rc, bean)
		if err != nil {
			renderErr = err
			return false
		}
		n.ReplaceWith(dom.NewRaw(markup))
		return false
	})
	if renderErr != nil {
		return nil, renderErr
	}
	if len(pd.Menu) > 0 {
		if body := tpl.Find(dom.ByTag("body")); body != nil {
			var nb strings.Builder
			nb.WriteString(`<nav class="webml-menu">`)
			for _, item := range pd.Menu {
				fmt.Fprintf(&nb, `<a href="/%s">%s</a> `,
					dom.EscapeAttr(item.Action), dom.EscapeText(item.Label))
			}
			nb.WriteString(`</nav>`)
			menu := dom.NewRaw(nb.String())
			if len(body.Children) > 0 {
				body.InsertBefore(menu, body.Children[0])
			} else {
				body.AppendChild(menu)
			}
		}
	}
	var b strings.Builder
	if ctx.Error != "" {
		fmt.Fprintf(&b, `<div class="webml-error">%s</div>`, dom.EscapeText(ctx.Error))
	}
	b.WriteString(tpl.String())
	return []byte(b.String()), nil
}

// OracleFragment is the former fragment endpoint body: one unit's
// markup, or the comment standing for a unit the page did not compute.
func OracleFragment(e *Engine, pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	bean := state.Beans[unitID]
	if bean == nil {
		return []byte("<!-- unit " + unitID + " not computed -->"), nil
	}
	markup, err := oracleUnit(e, &Context{Page: pd, State: state, Request: ctx}, bean)
	if err != nil {
		return nil, err
	}
	return []byte(markup), nil
}

func oracleUnit(e *Engine, rc *Context, bean *mvc.UnitBean) (string, error) {
	tag, ok := e.Tags[bean.Kind]
	if !ok {
		return "", fmt.Errorf("oracle: no tag renderer for unit kind %q", bean.Kind)
	}
	return tag(rc, bean), nil
}
