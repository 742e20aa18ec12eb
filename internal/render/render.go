// Package render is the View of Figure 4: page templates made of static
// markup plus custom tags ("HTML + custom tags"), where each WebML unit
// kind maps to a custom tag transforming the content stored in the unit
// beans into HTML. Rendering optionally consults the template-fragment
// cache and a runtime styler (Section 5's on-the-fly presentation rules).
package render

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// TagRenderer produces the HTML rendition of one unit kind from its bean
// — the custom tag implementation of Section 3 ("WebML-aware tags,
// defined on purpose to match the features of WebML units").
type TagRenderer func(rc *Context, bean *mvc.UnitBean) string

// Styler transforms a parsed template for the requesting device
// (runtime application of the presentation rules, Section 5). Variant
// names the rule set chosen for a user agent. Apply's result must depend
// only on Variant(userAgent): the engine compiles each page once per
// variant and serves that program to every user agent of the variant,
// and the fragment cache keys unit markup on the variant too. Programs
// are kept for the engine's lifetime, so variants must be few (rule-set
// names, not raw header values).
type Styler interface {
	Apply(tpl *dom.Node, userAgent string) (*dom.Node, error)
	Variant(userAgent string) string
}

// Engine renders pages from the repository's templates. Each page
// template is compiled once per style variant into a program (see
// compile); the templates must not change once rendering starts.
type Engine struct {
	Repo *descriptor.Repository
	// Tags maps unit kind -> renderer; NewEngine installs the core six,
	// plug-ins add theirs.
	Tags map[string]TagRenderer
	// Fragments, when set, caches rendered unit fragments (ESI-style).
	Fragments *cache.FragmentCache
	// Styler, when set, applies presentation rules per device variant.
	Styler Styler

	mu       sync.RWMutex
	programs map[programKey]*program
}

// program is one page template compiled for one style variant: its
// markup serialized once and cut at the custom tags. static has one span
// more than slots, and static[i] precedes slots[i], the unit ID of the
// i-th custom tag in document order.
type program struct {
	static []string
	slots  []string
}

type programKey struct{ page, variant string }

// NewEngine returns a renderer with the core tag library installed.
func NewEngine(repo *descriptor.Repository) *Engine {
	e := &Engine{
		Repo:     repo,
		Tags:     map[string]TagRenderer{},
		programs: map[programKey]*program{},
	}
	e.Tags["data"] = renderDataTag
	e.Tags["index"] = renderIndexTag
	e.Tags["multidata"] = renderMultidataTag
	e.Tags["multichoice"] = renderMultichoiceTag
	e.Tags["scroller"] = renderScrollerTag
	e.Tags["entry"] = renderEntryTag
	return e
}

// RegisterTag installs the renderer for a (plug-in) unit kind.
func (e *Engine) RegisterTag(kind string, r TagRenderer) { e.Tags[kind] = r }

// Context is passed to tag renderers.
type Context struct {
	Page    *descriptor.Page
	State   *mvc.PageState
	Request *mvc.RequestContext
}

// Anchors returns the anchors originating at a unit.
func (rc *Context) Anchors(unitID string) []descriptor.Anchor {
	var out []descriptor.Anchor
	for _, a := range rc.Page.Anchors {
		if a.FromUnit == unitID {
			out = append(out, a)
		}
	}
	return out
}

// AnchorURL builds the href of an anchor applied to one displayed object.
func (rc *Context) AnchorURL(a descriptor.Anchor, values mvc.Row) string {
	params := map[string]string{}
	for _, p := range a.Params {
		if v, ok := values[p.Source]; ok {
			params[p.Target] = mvc.FormatParam(v)
		}
	}
	return mvc.ActionURL(a.Action, params)
}

var (
	_ mvc.Renderer          = (*Engine)(nil)
	_ mvc.ContainerRenderer = (*Engine)(nil)
	_ mvc.FragmentRenderer  = (*Engine)(nil)
)

// RenderPage implements mvc.Renderer: the page's compiled program for
// the requesting device, with every custom tag's slot filled by its
// unit's rendition, consulting the fragment cache.
func (e *Engine) RenderPage(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) ([]byte, error) {
	return e.render(pd, state, ctx, false)
}

// RenderContainer implements mvc.ContainerRenderer (the edge mode of
// Section 6's ESI architecture): the template renders with every unit
// slot replaced by an <esi:include> placeholder pointing at the unit's
// fragment endpoint. No unit is computed — the surrogate fetches and
// caches each fragment independently, under its own descriptor policy.
func (e *Engine) RenderContainer(pd *descriptor.Page, ctx *mvc.RequestContext) ([]byte, error) {
	return e.render(pd, nil, ctx, true)
}

// RenderUnitFragment implements mvc.FragmentRenderer: one unit's slot,
// filled by the same function RenderPage fills it with (including the
// placeholder comment for units the page did not compute), so an
// edge-assembled page equals the in-process rendering exactly.
func (e *Engine) RenderUnitFragment(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	rc := &Context{Page: pd, State: state, Request: ctx}
	markup, err := e.slot(rc, e.variant(ctx.UserAgent), unitID, false)
	if err != nil {
		return nil, err
	}
	return []byte(markup), nil
}

// VariesByUserAgent reports whether rendering dispatches on the request
// User-Agent (runtime presentation rules), so the Controller and any
// cache tier key and Vary on it.
func (e *Engine) VariesByUserAgent() bool { return e.Styler != nil }

func (e *Engine) variant(userAgent string) string {
	if e.Styler == nil {
		return ""
	}
	return e.Styler.Variant(userAgent)
}

// render writes the error banner, then each static span of the page's
// program followed by its filled slot: edge mode fills slots with ESI
// placeholders where the inline mode substitutes computed unit markup.
func (e *Engine) render(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, edge bool) ([]byte, error) {
	variant := e.variant(ctx.UserAgent)
	prog, err := e.program(pd, variant, ctx.UserAgent)
	if err != nil {
		return nil, err
	}
	banner := ""
	if ctx.Error != "" {
		banner = `<div class="webml-error">` + dom.EscapeText(ctx.Error) + `</div>`
	}
	rc := &Context{Page: pd, State: state, Request: ctx}
	fills := make([]string, 0, 16) // on the stack for pages of up to 16 units
	size := len(banner) + len(prog.static[len(prog.slots)])
	for i, unitID := range prog.slots {
		fill, err := e.slot(rc, variant, unitID, edge)
		if err != nil {
			return nil, err
		}
		fills = append(fills, fill)
		size += len(prog.static[i]) + len(fill)
	}
	out := make([]byte, 0, size)
	out = append(out, banner...)
	for i, fill := range fills {
		out = append(out, prog.static[i]...)
		out = append(out, fill...)
	}
	return append(out, prog.static[len(fills)]...), nil
}

// slot returns what stands in place of one custom tag: the unit's
// markup, a comment for a unit the page did not compute, or in edge mode
// the <esi:include> the surrogate substitutes textually with the markup
// RenderUnitFragment returns for the same slot.
func (e *Engine) slot(rc *Context, variant, unitID string, edge bool) (string, error) {
	if edge {
		src := mvc.FragmentURL(rc.Page.ID, unitID, rc.Request.Params)
		return `<esi:include src="` + dom.EscapeAttr(src) + `"/>`, nil
	}
	bean := rc.State.Beans[unitID]
	if bean == nil {
		return "<!-- unit " + unitID + " not computed -->", nil
	}
	return e.renderUnit(rc, bean, variant)
}

// renderUnit produces one unit's markup, reusing a cached fragment when
// the bean content (and style variant) is unchanged. As Section 6
// explains, this spares "only the computation of markup from query
// results, not the execution of the data extraction queries" — the bean
// cache (mvc.CachedBusiness) covers those.
func (e *Engine) renderUnit(rc *Context, bean *mvc.UnitBean, variant string) (string, error) {
	var key string
	if e.Fragments != nil {
		var kb [128]byte
		k := append(kb[:0], rc.Page.ID...)
		k = append(append(k, '|'), bean.UnitID...)
		k = append(append(k, '|'), variant...)
		k = strconv.AppendUint(append(k, '|'), bean.Hash(), 16)
		key = string(k)
		if cached, ok := e.Fragments.Get(key); ok {
			return string(cached), nil
		}
	}
	tag, ok := e.Tags[bean.Kind]
	if !ok {
		return "", fmt.Errorf("render: no tag renderer for unit kind %q", bean.Kind)
	}
	markup := tag(rc, bean)
	if e.Fragments != nil {
		// Per-fragment policy (the ESI capability of Section 6): a unit's
		// conceptual cache TTL also bounds its rendered fragment.
		if d := e.Repo.Unit(bean.UnitID); d != nil && d.Cache != nil && d.Cache.TTLSeconds > 0 {
			e.Fragments.PutTTL(key, []byte(markup), time.Duration(d.Cache.TTLSeconds)*time.Second)
		} else {
			e.Fragments.Put(key, []byte(markup))
		}
	}
	return markup, nil
}

// program returns the page's program for a style variant, compiling it
// on first use. A failed compilation is not remembered.
func (e *Engine) program(pd *descriptor.Page, variant, userAgent string) (*program, error) {
	key := programKey{pd.ID, variant}
	e.mu.RLock()
	prog := e.programs[key]
	e.mu.RUnlock()
	if prog != nil {
		return prog, nil
	}
	prog, err := e.compile(pd, userAgent)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.programs[key] = prog
	e.mu.Unlock()
	return prog, nil
}

var isUnitTag = dom.ByTagPrefix("webml:")

// compile builds a page's program for the user agent's style variant:
// parse the template, apply the presentation rules, inject the landmark
// menu at the top of the body, and serialize the tree cut at every
// custom tag. This is the only place the template is a tree.
func (e *Engine) compile(pd *descriptor.Page, userAgent string) (*program, error) {
	src, ok := e.Repo.Template(pd.Template)
	if !ok {
		return nil, fmt.Errorf("render: no template %q", pd.Template)
	}
	tpl, err := dom.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("render: template %q: %w", pd.Template, err)
	}
	if e.Styler != nil {
		if tpl, err = e.Styler.Apply(tpl, userAgent); err != nil {
			return nil, err
		}
	}
	if isUnitTag(tpl) {
		return nil, fmt.Errorf("render: template %q: root element <%s> is a unit tag", pd.Template, tpl.Tag)
	}
	if len(pd.Menu) > 0 {
		injectMenu(tpl, pd.Menu)
	}
	static, tags := tpl.Cut(isUnitTag)
	prog := &program{static: static, slots: make([]string, len(tags))}
	for i, t := range tags {
		prog.slots[i], _ = t.Attr("id")
	}
	return prog, nil
}

// injectMenu puts the landmark navigation menu first in the body. The
// body is looked up outside the custom tags, whose content never reaches
// the page.
func injectMenu(tpl *dom.Node, items []descriptor.MenuItem) {
	var body *dom.Node
	tpl.Walk(func(n *dom.Node) bool {
		if body != nil || isUnitTag(n) {
			return false
		}
		if n.Type == dom.ElementNode && n.Tag == "body" {
			body = n
			return false
		}
		return true
	})
	if body == nil {
		return
	}
	var b strings.Builder
	b.WriteString(`<nav class="webml-menu">`)
	for _, item := range items {
		fmt.Fprintf(&b, `<a href="/%s">%s</a> `, dom.EscapeAttr(item.Action), dom.EscapeText(item.Label))
	}
	b.WriteString(`</nav>`)
	menu := dom.NewRaw(b.String())
	if len(body.Children) > 0 {
		body.InsertBefore(menu, body.Children[0])
	} else {
		body.AppendChild(menu)
	}
}
