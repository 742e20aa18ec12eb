package render_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"webmlgo"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
	"webmlgo/internal/style"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// corpusApp is one application of the differential corpus. Every page
// is computed once, by an unstyled instance, and the resulting states
// are rendered under each presentation configuration.
type corpusApp struct {
	name   string
	model  func() (*webml.Model, error)
	seed   func(*rdb.DB) error
	params map[string]mvc.Value
}

var corpus = []corpusApp{
	{
		name:   "acm",
		model:  func() (*webml.Model, error) { return fixture.Figure1Model(), nil },
		seed:   fixture.Seed,
		params: map[string]mvc.Value{"volume": int64(1), "issue": int64(1), "paper": int64(1), "kw": "Query"},
	},
	{
		name:   "acer-euro",
		model:  func() (*webml.Model, error) { return workload.Generate(workload.AcerEuro()) },
		seed:   func(db *rdb.DB) error { return workload.Populate(db, 5, 7) },
		params: map[string]mvc.Value{"id": int64(1), "kw": "Product", "offset": int64(0)},
	},
}

// presentation is one style configuration of the corpus, rendered for
// each of its user agents.
type presentation struct {
	name string
	opts func(*webml.Model) []webmlgo.Option
	uas  []string
}

var presentations = []presentation{
	{"unstyled", func(*webml.Model) []webmlgo.Option { return nil }, []string{""}},
	{"compiled-b2c", func(*webml.Model) []webmlgo.Option {
		return []webmlgo.Option{webmlgo.WithCompiledStyle(webmlgo.B2CStyle())}
	}, []string{""}},
	{"by-site-view", func(m *webml.Model) []webmlgo.Option {
		sets := []*style.RuleSet{webmlgo.B2CStyle(), webmlgo.B2BStyle(), webmlgo.IntranetStyle()}
		bySV := map[string]*style.RuleSet{}
		for i, sv := range m.SiteViews {
			bySV[sv.ID] = sets[i%len(sets)]
		}
		return []webmlgo.Option{webmlgo.WithSiteViewStyles(bySV, webmlgo.IntranetStyle())}
	}, []string{""}},
	{"multi-device", func(*webml.Model) []webmlgo.Option {
		return []webmlgo.Option{webmlgo.WithRuntimeStyle(webmlgo.MultiDevice(webmlgo.B2CStyle()))}
	}, []string{"Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (iPhone; Mobile)"}},
}

// TestCompiledProgramsMatchOracle renders every page of the ACM and the
// 556-page Acer-Euro applications under each presentation — as a page
// (with and without an error banner, with and without computed units,
// fragment cache cold and warm), as an edge container, and unit by unit
// as fragments — and requires the compiled programs to reproduce the
// per-request DOM algorithm byte for byte. Pages without landmarks get a
// menu, so every page renders one.
func TestCompiledProgramsMatchOracle(t *testing.T) {
	menu := []descriptor.MenuItem{{Action: "page/home?a=1&b=2", Label: `Home & "away" <now>`}}
	for _, ca := range corpus {
		model, err := ca.model()
		if err != nil {
			t.Fatal(err)
		}
		states := computeStates(t, ca, model)
		for _, pr := range presentations {
			app, err := webmlgo.New(model, append(pr.opts(model), webmlgo.WithFragmentCache(4096, time.Minute))...)
			if err != nil {
				t.Fatalf("%s/%s: %v", ca.name, pr.name, err)
			}
			e := app.Renderer
			compared := 0
			for _, pd := range app.Artifacts.Repo.Pages() {
				if len(pd.Menu) == 0 {
					pd.Menu = menu
				}
				state := states[pd.ID]
				empty := &mvc.PageState{PageID: pd.ID, Beans: map[string]*mvc.UnitBean{}}
				for _, ua := range pr.uas {
					where := ca.name + "/" + pr.name + "/" + pd.ID + " [" + ua + "]"
					for _, banner := range []string{"", `failed: <b>&</b> "quoted"`} {
						ctx := &mvc.RequestContext{Params: ca.params, UserAgent: ua, Error: banner}
						for _, st := range []*mvc.PageState{state, state, empty} {
							got, err := e.RenderPage(pd, st, ctx)
							want, werr := render.OracleRender(e, pd, st, ctx, false)
							same(t, where+" page", got, err, want, werr)
						}
						got, err := e.RenderContainer(pd, ctx)
						want, werr := render.OracleRender(e, pd, nil, ctx, true)
						same(t, where+" container", got, err, want, werr)
						compared += 4
					}
					ctx := &mvc.RequestContext{Params: ca.params, UserAgent: ua}
					for _, u := range append(pd.Units, descriptor.UnitRef{ID: "ghost"}) {
						got, err := e.RenderUnitFragment(pd, state, ctx, u.ID)
						want, werr := render.OracleFragment(e, pd, state, ctx, u.ID)
						same(t, where+" fragment "+u.ID, got, err, want, werr)
						compared++
					}
				}
			}
			if compared == 0 {
				t.Fatalf("%s/%s: no page compared", ca.name, pr.name)
			}
			t.Logf("%s/%s: %d pages, %d renderings byte-identical", ca.name, pr.name, len(app.Artifacts.Repo.Pages()), compared)
		}
	}
}

// computeStates computes every page of the application once.
func computeStates(t *testing.T, ca corpusApp, model *webml.Model) map[string]*mvc.PageState {
	t.Helper()
	app, err := webmlgo.New(model)
	if err != nil {
		t.Fatalf("%s: %v", ca.name, err)
	}
	if err := ca.seed(app.DB); err != nil {
		t.Fatalf("%s: seed: %v", ca.name, err)
	}
	states := map[string]*mvc.PageState{}
	for _, pd := range app.Artifacts.Repo.Pages() {
		st, err := app.Controller.Pages.ComputePage(context.Background(), pd.ID, ca.params, nil)
		if err != nil {
			t.Fatalf("%s: compute %s: %v", ca.name, pd.ID, err)
		}
		states[pd.ID] = st
	}
	return states
}

func same(t *testing.T, where string, got []byte, err error, want []byte, werr error) {
	t.Helper()
	if err != nil || werr != nil {
		t.Fatalf("%s: compiled error %v, oracle error %v", where, err, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: compiled output differs from the oracle\ncompiled: %q\noracle:   %q", where, got, want)
	}
}
