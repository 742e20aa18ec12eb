package rdb

import "strings"

// This file holds the two planner moves that let a compiled plan visit
// rows in an order the interpreter does not: a cost-chosen join driver
// (reorderJoins) and the scalar-aggregate walk of an ordered index
// (keyWalk). Both are gated by one rule, orderUnobservable: the visit
// order may differ only where the result cannot show it, so the
// differential corpus keeps comparing exact row sequences.

// resolveRef mirrors compileColRef's name resolution without compiling:
// the frame and column ref binds to, or ok=false where compileColRef
// would produce an error thunk.
func resolveRef(ref *ColRef, frames []planFrame) (fi, ci int, ok bool) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for i, f := range frames {
			if f.name == want {
				ci, ok = f.tbl.col(ref.Column)
				return i, ci, ok
			}
		}
		return -1, -1, false
	}
	fi, ci = -1, -1
	for i, f := range frames {
		if c, ok := f.tbl.col(ref.Column); ok {
			if fi >= 0 {
				return -1, -1, false
			}
			fi, ci = i, c
		}
	}
	return fi, ci, fi >= 0
}

// walkExpr calls fn on every node of e, parents first; fn returns false
// to skip a node's children.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *UnaryExpr:
		walkExpr(x.X, fn)
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *InExpr:
		walkExpr(x.X, fn)
		for _, le := range x.List {
			walkExpr(le, fn)
		}
	case *FuncExpr:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	}
}

// dataOnlyRefs returns the set of frames e reads and whether e can fail
// only on data — a comparison, LIKE or arithmetic over mismatched
// values, the family tolerableDivergence accepts. Every column
// reference must resolve and every operator must be one the compiler
// knows; function calls are refused outright. A condition that passes
// may be evaluated over a different set of row combinations than the
// interpreter visits without a static error surfacing in one engine
// only.
func dataOnlyRefs(e Expr, frames []planFrame) (mask uint64, ok bool) {
	ok = true
	walkExpr(e, func(n Expr) bool {
		switch x := n.(type) {
		case *FuncExpr:
			ok = false
		case *UnaryExpr:
			ok = x.Op == "NOT" || x.Op == "-"
		case *BinaryExpr:
			switch x.Op {
			case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE", "+", "-", "*", "/":
			default:
				ok = false
			}
		case *ColRef:
			fi, _, found := resolveRef(x, frames)
			if found {
				mask |= 1 << uint(fi)
			}
			ok = found
		}
		return ok
	})
	return mask, ok
}

func onSafe(on Expr, scope []planFrame) bool {
	_, ok := dataOnlyRefs(on, scope)
	return ok
}

// orderUnobservable reports whether the result of sel cannot show the
// order in which the plan produces row combinations:
//   - a scalar aggregate (no GROUP BY) whose every column reference
//     sits inside an order-insensitive aggregate: COUNT, MIN/MAX over a
//     bare integer or text column, SUM over a bare integer column
//     (AVG and float sums round differently in another order, and a
//     bare column outside an aggregate reads the first row);
//   - a non-DISTINCT plain select whose ORDER BY names, as a bare
//     reference, the primary key of every frame the projection reads
//     ('*' reads all): rows that tie on every sort key then project
//     identically, so the stable sort fixes the sequence.
func orderUnobservable(sel *SelectStmt, frames []planFrame, aggregate bool) bool {
	if aggregate {
		if len(sel.GroupBy) > 0 {
			return false
		}
		ok := true
		check := func(e Expr) {
			walkExpr(e, func(n Expr) bool {
				switch x := n.(type) {
				case *ColRef:
					ok = false
				case *FuncExpr:
					ok = ok && aggregateFuncs[x.Name] && orderFreeAggregate(x, frames)
					return false
				}
				return ok
			})
		}
		for _, c := range sel.Columns {
			if c.Expr == nil {
				return false
			}
			check(c.Expr)
		}
		if sel.Having != nil {
			check(sel.Having)
		}
		return ok
	}
	if sel.Distinct {
		return false
	}
	var keyed uint64
	for _, term := range sel.OrderBy {
		if ref, ok := term.Expr.(*ColRef); ok {
			if fi, ci, ok := resolveRef(ref, frames); ok && ci == frames[fi].tbl.pk {
				keyed |= 1 << uint(fi)
			}
		}
	}
	all := uint64(1)<<uint(len(frames)) - 1
	var read uint64
	if len(sel.Columns) == 0 {
		read = all
	}
	for _, c := range sel.Columns {
		switch {
		case c.Star == "*":
			read = all
		case c.Star != "":
			want := strings.ToLower(c.Star)
			for fi, f := range frames {
				if f.name == want {
					read |= 1 << uint(fi)
				}
			}
		default:
			walkExpr(c.Expr, func(n Expr) bool {
				if ref, ok := n.(*ColRef); ok {
					if fi, _, ok := resolveRef(ref, frames); ok {
						read |= 1 << uint(fi)
					}
				}
				return true
			})
		}
	}
	return read&^keyed == 0
}

func orderFreeAggregate(x *FuncExpr, frames []planFrame) bool {
	if x.Name == "COUNT" {
		return true
	}
	if len(x.Args) != 1 {
		return false
	}
	ref, ok := x.Args[0].(*ColRef)
	if !ok {
		return false
	}
	fi, ci, ok := resolveRef(ref, frames)
	if !ok {
		return false
	}
	switch frames[fi].tbl.cols[ci].def.Type {
	case TInt:
		return x.Name != "AVG"
	case TText:
		return x.Name == "MIN" || x.Name == "MAX"
	}
	return false
}

// whereKeyColumn returns the one column of frame 0 the WHERE reads, or
// -1 when it reads none, several, or any other frame, or holds a
// reference that does not resolve.
func whereKeyColumn(where Expr, frames []planFrame) int {
	col := -1
	ok := where != nil
	walkExpr(where, func(n Expr) bool {
		if ref, isRef := n.(*ColRef); isRef {
			fi, ci, found := resolveRef(ref, frames)
			if !found || fi != 0 || (col >= 0 && ci != col) {
				ok = false
			}
			col = ci
		}
		return ok
	})
	if !ok {
		return -1
	}
	return col
}

// keyWalk replaces the full scan of a join-free scalar aggregate whose
// WHERE reads one column by a walk of that column's ordered index, so
// the key filter can reject entries before their rows are fetched. The
// walk must be a complete view — the index skips NULLs — so the column
// must be NOT NULL or the primary key, the rule orderWalk uses.
func keyWalk(p *SelectPlan, sel *SelectStmt) (accessPath, bool) {
	ci := whereKeyColumn(sel.Where, p.frames)
	if ci < 0 || !orderUnobservable(sel, p.frames, true) {
		return accessPath{}, false
	}
	t := p.base
	def := t.cols[ci].def
	ix, ok := t.ordered[strings.ToLower(def.Name)]
	if !ok || !(def.NotNull || ci == t.pk) {
		return accessPath{}, false
	}
	return accessPath{kind: accessRange, col: def.Name, ord: ix, orderWalk: true, est: float64(t.alive)}, true
}

// reorderJoins drives an all-INNER join from the frame whose
// WHERE-derived access path is estimated cheapest, when that is not the
// FROM table, and binds every other frame by an indexed equi-join probe
// taken from the ON conjuncts. p.frames stays in textual order — compiled
// expressions, star expansion and column order are unchanged — and only
// the loop nesting moves. Each ON is checked at the first level where
// every frame it reads is bound. It reports false, leaving p as it was,
// when the statement does not qualify: a LEFT JOIN, an order the result
// could show, an ON that could fail for a reason other than data, no
// cheaper driver, or a frame with no probe key. The caller has checked
// the WHERE the same way.
func (db *DB) reorderJoins(p *SelectPlan, sel *SelectStmt, hasOrderBy bool) bool {
	n := len(p.frames)
	if n < 2 || n > 64 || !orderUnobservable(sel, p.frames, p.aggregate) {
		return false
	}
	onReads := make([]uint64, len(sel.Joins))
	for k, j := range sel.Joins {
		if j.Left {
			return false
		}
		m, ok := dataOnlyRefs(j.On, p.frames[:k+2])
		if !ok {
			return false
		}
		onReads[k] = m | 1<<uint(k+1)
	}

	driver, access := 0, p.access
	for fi := 1; fi < n; fi++ {
		f := p.frames[fi]
		path := db.chooseAccess(p, f.tbl, sel.Where, f.name, true, false, nil, false, hasOrderBy, false)
		if path.est < access.est {
			driver, access = fi, path
		}
	}
	if driver == 0 {
		return false
	}

	var conjs []probeConjunct
	for k, j := range sel.Joins {
		conjs = appendProbeConjuncts(conjs, j.On, p.frames[:k+2])
	}
	display := func(fi int) string {
		if fi == 0 {
			return sel.From.Table
		}
		return sel.Joins[fi-1].Table.Table
	}
	pos := make([]int, n) // nesting level of each frame; the driver's is 0
	bound := uint64(1) << uint(driver)
	var levels []joinPlan
	for len(levels) < n-1 {
		var jp joinPlan
		found := false
		for fi := 0; fi < n && !found; fi++ {
			if bound&(1<<uint(fi)) == 0 {
				jp, found = probeFor(fi, p.frames, conjs, bound)
			}
		}
		if !found {
			return false
		}
		jp.displayTable = display(jp.frame)
		bound |= 1 << uint(jp.frame)
		levels = append(levels, jp)
		pos[jp.frame] = len(levels)
	}
	ons := make([][]compiledExpr, len(levels))
	for k, j := range sel.Joins {
		ready := 0
		for fi := 0; fi < n; fi++ {
			if onReads[k]&(1<<uint(fi)) != 0 && pos[fi] > ready {
				ready = pos[fi]
			}
		}
		if ready == 0 { // reads only the driver: check it one level down
			ready = 1
		}
		ons[ready-1] = append(ons[ready-1], compileExpr(j.On, p.frames[:k+2]))
	}
	for i := range levels {
		levels[i].on = allTrue(ons[i])
	}
	p.joins = levels
	p.driver = driver
	p.base = p.frames[driver].tbl
	p.baseTable = display(driver)
	p.access = access
	return true
}

// probeConjunct is one top-level "col = col" conjunct of an ON
// condition, resolved against that ON's scope.
type probeConjunct struct {
	l, r   *ColRef
	lf, rf int // frames the two sides bind to
	lc, rc int // their columns
	scope  []planFrame
}

func appendProbeConjuncts(out []probeConjunct, on Expr, scope []planFrame) []probeConjunct {
	be, ok := on.(*BinaryExpr)
	if !ok {
		return out
	}
	switch be.Op {
	case "AND":
		out = appendProbeConjuncts(out, be.L, scope)
		return appendProbeConjuncts(out, be.R, scope)
	case "=":
		l, lok := be.L.(*ColRef)
		r, rok := be.R.(*ColRef)
		if !lok || !rok {
			return out
		}
		lf, lc, lok := resolveRef(l, scope)
		rf, rc, rok := resolveRef(r, scope)
		if !lok || !rok || lf == rf {
			return out
		}
		// Probes match by map key, the interpreter by compareValues: the
		// two agree on same-typed integer and text values only.
		lt, rt := scope[lf].tbl.cols[lc].def.Type, scope[rf].tbl.cols[rc].def.Type
		if lt == rt && (lt == TInt || lt == TText) {
			out = append(out, probeConjunct{l: l, r: r, lf: lf, rf: rf, lc: lc, rc: rc, scope: scope})
		}
	}
	return out
}

// probeFor finds an indexed equi-join probe binding frame fi from the
// bound frames: a primary key, hash index or unique column first, then
// the leading column of a composite index — the precedence of the
// textual-order join planner.
func probeFor(fi int, frames []planFrame, conjs []probeConjunct, bound uint64) (joinPlan, bool) {
	t := frames[fi].tbl
	for pass := 0; pass < 2; pass++ {
		for _, c := range conjs {
			outer, ci := c.r, c.lc
			if c.lf != fi || bound&(1<<uint(c.rf)) == 0 {
				outer, ci = c.l, c.rc
				if c.rf != fi || bound&(1<<uint(c.lf)) == 0 {
					continue
				}
			}
			jp := joinPlan{tbl: t, frame: fi, estRows: t.alive, outer: compileExpr(outer, c.scope)}
			if pass == 0 {
				if jp.setProbe(t.cols[ci].def.Name) {
					return jp, true
				}
				continue
			}
			lower := strings.ToLower(t.cols[ci].def.Name)
			for _, comp := range t.composites {
				if comp.colNames[0] == lower {
					jp.setComposite(comp)
					return jp, true
				}
			}
		}
	}
	return joinPlan{}, false
}

// setProbe configures jp to probe its table by col through the primary
// key, a hash index or a unique map, in the interpreter's lookup
// precedence. It reports false when col carries none of them.
func (jp *joinPlan) setProbe(col string) bool {
	lower := strings.ToLower(col)
	t := jp.tbl
	switch {
	case t.colIdx[lower] == t.pk:
		jp.kind = jkPK
	case t.indexes[lower] != nil:
		jp.kind = jkHash
		jp.hashIdx = t.indexes[lower]
	case t.uniques[lower] != nil:
		jp.kind = jkUnique
		jp.uniqMap = t.uniques[lower]
	default:
		return false
	}
	jp.col = col
	jp.label = accessKind(t, col)
	return true
}

func (jp *joinPlan) setComposite(comp *compositeIndex) {
	jp.kind = jkComposite
	jp.comp = comp
	jp.col = comp.colNames[0]
	jp.label = "COMPOSITE INDEX " + comp.name
}

// allTrue combines the ON conditions checked at one nesting level: true
// when every one is, evaluated in order and stopping at the first that
// is not. Nil when there is none.
func allTrue(es []compiledExpr) compiledExpr {
	switch len(es) {
	case 0:
		return nil
	case 1:
		return es[0]
	}
	return func(c *execCtx) (Value, error) {
		for _, e := range es {
			v, err := e(c)
			if err != nil || !truthy(v) {
				return v, err
			}
		}
		return true, nil
	}
}
