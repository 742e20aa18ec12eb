package render

import (
	"testing"
)

// BenchmarkRenderPage measures the per-page rendering cost, allocations
// included. The page's program compiles on the first iteration; the loop
// measures filling its slots, so allocations are the tag renderers' own
// plus one for the output. The allocation count is deterministic and is
// the regression signal: 56 allocs/op, ~8 µs/op on a 2-vCPU Xeon @
// 2.1GHz (go1.24).
func BenchmarkRenderPage(b *testing.B) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RenderPage(pd, state, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderUnitFragment isolates the fragment endpoint's path: one
// slot filled outside a page.
func BenchmarkRenderUnitFragment(b *testing.B) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RenderUnitFragment(pd, state, ctx, "i1"); err != nil {
			b.Fatal(err)
		}
	}
}
