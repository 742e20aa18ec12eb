package render

import (
	"bytes"
	"testing"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/style"
)

// FuzzRenderTemplate compiles arbitrary template markup, with arbitrary
// text in the page title, menu, error banner and unit content, unstyled
// and under runtime rules for two devices. Compilation may reject the
// template; when it does not, every page, container and fragment
// rendering must equal the per-request DOM oracle byte for byte.
func FuzzRenderTemplate(f *testing.F) {
	f.Add(tplP1, "P1")
	f.Add(`<html><head><title>a`+"\x00"+`b</title></head><body><webml:dataUnit id="d1"/></body></html>`, "nul\x00title")
	f.Add(`<html><body><webml:dataUnit id="d1"><webml:indexUnit id="i1"/><body/></webml:dataUnit></body></html>`, "nested")
	f.Add(`<html><body><webml:dataUnit id="d1">`, "unclosed")
	f.Add(`<html><head><script>if (a<b) "<webml:dataUnit id='d1'/>"</script></head><body><webml:indexUnit id="i1"/></body></html>`, "<script>")
	f.Add(`<webml:dataUnit id="d1"><body/></webml:dataUnit>`, "root unit")
	f.Add(`<html><webml:dataUnit id="d1"><body/></webml:dataUnit><body>x</body></html>`, "body in a unit tag")
	f.Add(`<p/><webml:entryUnit id="e1"/><webml:dataUnit id="x"/>text &amp; more`, "&amp;")
	f.Add(`<html data-layout="two-column"><head><title>${title}</title></head><body><webml:scrollerUnit id="d1"/></body></html>`, "${id}${name}")
	f.Fuzz(func(t *testing.T, tpl, text string) {
		pd, state, ctx := pageFixture()
		pd.Name = text
		pd.Menu = []descriptor.MenuItem{{Action: "page/" + text, Label: text}}
		state.Beans["d1"].Nodes[0].Values["Title"] = text
		ctx.Params["kw"] = text
		for _, styler := range []Styler{nil, style.StandardProfiles(style.B2CRuleSet())} {
			for _, ua := range []string{"Mozilla/5.0 (X11)", "Mozilla/5.0 (iPhone; Mobile)"} {
				e := engineWith(pd, tpl)
				e.Styler = styler
				ctx.UserAgent = ua
				for _, banner := range []string{"", text} {
					ctx.Error = banner
					got, err := e.RenderPage(pd, state, ctx)
					if err != nil {
						continue // rejected at compilation or by a unit
					}
					want, werr := OracleRender(e, pd, state, ctx, false)
					if werr != nil || !bytes.Equal(got, want) {
						t.Fatalf("page differs (oracle error %v)\ncompiled: %q\noracle:   %q", werr, got, want)
					}
					got, err = e.RenderContainer(pd, ctx)
					want, werr = OracleRender(e, pd, nil, ctx, true)
					if err != nil || werr != nil || !bytes.Equal(got, want) {
						t.Fatalf("container differs (%v, oracle %v)\ncompiled: %q\noracle:   %q", err, werr, got, want)
					}
				}
				for _, id := range []string{"d1", "i1", "e1", text} {
					got, err := e.RenderUnitFragment(pd, state, ctx, id)
					want, werr := OracleFragment(e, pd, state, ctx, id)
					if err != nil || werr != nil || !bytes.Equal(got, want) {
						t.Fatalf("fragment %q differs (%v, oracle %v)\ncompiled: %q\noracle:   %q", id, err, werr, got, want)
					}
				}
			}
		}
	})
}
