package rdb

import (
	"fmt"
	"strings"
)

// The planner lowers a SelectStmt into a SelectPlan once per SQL text.
// Access-path choice is cost-based: candidate paths are enumerated from
// the WHERE conjuncts and the available indexes, estimated from table
// and index cardinality, and the cheapest wins. Ties keep the earlier
// candidate, and candidates are enumerated in the interpreter's
// precedence order (point lookups, then composite, then range, then
// scan), so on empty or tiny tables — where every estimate collapses
// toward zero — the plan still matches the seed's access-path labels.

// planCandidate pairs a possible access path with its estimated cost.
type planCandidate struct {
	path accessPath
	cost float64
	elim bool // reading the path in index order satisfies ORDER BY
}

// eqConjunct is one "col = constExpr" found in the WHERE top-level ANDs.
type eqConjunct struct {
	colLower string
	col      string // original spelling, for EXPLAIN
	val      Expr
}

// rangeConjunct accumulates the bound expressions on one column.
type rangeConjunct struct {
	colLower string
	col      string
	los      []astBound
	his      []astBound
}

type astBound struct {
	expr      Expr
	inclusive bool
}

// collectEq gathers base-table equality conjuncts in AND-walk order,
// applying eqSide's shape rules (qualification, const right side) but
// not its index requirement: composite prefixes may use columns that
// carry no single-column index.
func collectEq(where Expr, t *table, tableName string, requireQualified bool) []eqConjunct {
	var out []eqConjunct
	seen := map[string]bool{}
	add := func(colSide, valSide Expr) bool {
		ref, ok := colSide.(*ColRef)
		if !ok {
			return false
		}
		if ref.Table == "" && requireQualified {
			return false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
			return false
		}
		lower := strings.ToLower(ref.Column)
		if _, ok := t.colIdx[lower]; !ok {
			return false
		}
		if !isConstExpr(valSide) {
			return false
		}
		if !seen[lower] { // the interpreter uses the first conjunct per column
			seen[lower] = true
			out = append(out, eqConjunct{colLower: lower, col: ref.Column, val: valSide})
		}
		return true
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case "AND":
			walk(be.L)
			walk(be.R)
		case "=":
			if !add(be.L, be.R) {
				add(be.R, be.L)
			}
		}
	}
	if where != nil {
		walk(where)
	}
	return out
}

// collectRanges gathers range conjuncts per base column in AND-walk
// order. Bound values stay unevaluated: they are folded at bind time,
// when parameters are known.
func collectRanges(where Expr, t *table, tableName string, requireQualified bool) []*rangeConjunct {
	var out []*rangeConjunct
	byCol := map[string]*rangeConjunct{}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	add := func(colSide, valSide Expr, op string) bool {
		ref, ok := colSide.(*ColRef)
		if !ok {
			return false
		}
		if ref.Table == "" && requireQualified {
			return false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
			return false
		}
		lower := strings.ToLower(ref.Column)
		if _, ok := t.colIdx[lower]; !ok {
			return false
		}
		if !isConstExpr(valSide) {
			return false
		}
		rc := byCol[lower]
		if rc == nil {
			rc = &rangeConjunct{colLower: lower, col: ref.Column}
			byCol[lower] = rc
			out = append(out, rc)
		}
		b := astBound{expr: valSide, inclusive: op == ">=" || op == "<="}
		if op == ">" || op == ">=" {
			rc.los = append(rc.los, b)
		} else {
			rc.his = append(rc.his, b)
		}
		return true
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		if be.Op == "AND" {
			walk(be.L)
			walk(be.R)
			return
		}
		op := be.Op
		if _, isRange := flip[op]; !isRange {
			return
		}
		if !add(be.L, be.R, op) {
			add(be.R, be.L, flip[op])
		}
	}
	if where != nil {
		walk(where)
	}
	return out
}

func compileBounds(bs []astBound) []boundCand {
	out := make([]boundCand, len(bs))
	for i, b := range bs {
		out[i] = boundCand{val: compileExpr(b.expr, nil), inclusive: b.inclusive}
	}
	return out
}

// buildPlan compiles one SELECT. The caller must hold at least a read
// lock on db.mu.
func (db *DB) buildPlan(sel *SelectStmt) (*SelectPlan, error) {
	return db.buildPlanTables(sel, db.tables, false)
}

// buildPlanTables compiles one SELECT against an explicit table map —
// the live catalog, or a snapshot's frozen view. In snapshot mode the
// planner is restricted to operators that work without the live
// in-memory index structures (frozen views carry none): a record-store
// point fetch on an int-keyed primary key, full scans, and nested-loop
// joins. Snapshot mode must not touch any mutable DB field (it runs
// without db.mu), so the DDL epoch is left at zero; snapshot plans are
// cached per snapshot and never revalidated.
func (db *DB) buildPlanTables(sel *SelectStmt, tables map[string]*table, snap bool) (*SelectPlan, error) {
	base, ok := tables[strings.ToLower(sel.From.Table)]
	if !ok {
		return nil, fmt.Errorf("rdb: no such table %q", sel.From.Table)
	}
	p := &SelectPlan{
		stmt:      sel,
		base:      base,
		baseTable: sel.From.Table,
		distinct:  sel.Distinct,
	}
	if !snap {
		p.epoch = db.ddlEpoch
	}
	p.frames = []planFrame{{name: strings.ToLower(sel.From.name()), tbl: base}}
	joinTables := make([]*table, len(sel.Joins))
	for i, j := range sel.Joins {
		jt, ok := tables[strings.ToLower(j.Table.Table)]
		if !ok {
			return nil, fmt.Errorf("rdb: no such table %q", j.Table.Table)
		}
		joinTables[i] = jt
		p.frames = append(p.frames, planFrame{name: strings.ToLower(j.Table.name()), tbl: jt})
	}

	p.aggregate = len(sel.GroupBy) > 0
	if !p.aggregate {
		for _, c := range sel.Columns {
			if c.Expr != nil && hasAggregate(c.Expr) {
				p.aggregate = true
				break
			}
		}
	}

	// ORDER BY eligibility for index-order elimination: single table, no
	// DISTINCT reshuffle, no grouping, every key a plain base-table
	// column, one direction throughout.
	var orderCols []string
	orderDesc := false
	orderEligible := false
	if len(sel.OrderBy) > 0 && len(sel.Joins) == 0 && !sel.Distinct && !p.aggregate {
		orderEligible = true
		orderDesc = sel.OrderBy[0].Desc
		for _, term := range sel.OrderBy {
			ref, ok := term.Expr.(*ColRef)
			if !ok || term.Desc != orderDesc {
				orderEligible = false
				break
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, sel.From.name()) {
				orderEligible = false
				break
			}
			lower := strings.ToLower(ref.Column)
			if _, ok := base.colIdx[lower]; !ok {
				orderEligible = false
				break
			}
			orderCols = append(orderCols, lower)
		}
		if !orderEligible {
			orderCols = nil
		}
	}

	// A WHERE that can fail for a reason other than data (an unknown
	// column, a function) must fail exactly when the interpreter's does,
	// so the plan then visits the interpreter's own candidate rows, and
	// every one of them: LIMIT does not stop early. The same holds for a
	// projection evaluated on rows past the limit.
	hasOrderBy := len(sel.OrderBy) > 0
	_, whereSafe := dataOnlyRefs(sel.Where, p.frames)
	p.fullVisit = !whereSafe
	for _, c := range sel.Columns {
		if _, ok := dataOnlyRefs(c.Expr, p.frames); !ok {
			p.fullVisit = true
		}
	}
	if whereSafe {
		p.access = db.chooseAccess(p, base, sel.Where, sel.From.name(), len(sel.Joins) > 0, orderEligible, orderCols, orderDesc, hasOrderBy, snap)
		if !snap && len(sel.Joins) == 0 && p.aggregate && p.access.kind == accessScan {
			if walk, ok := keyWalk(p, sel); ok {
				p.access = walk
			}
		}
	} else {
		p.access = accessPath{kind: accessInterp, est: float64(base.alive)}
	}

	// Joins: unless a cheaper driver reorders them, prefer the
	// interpreter's indexed equi-join (probing the new table's primary
	// key, hash index or unique column), then a composite index whose
	// leading column matches, then a nested loop. The interpreter nests
	// where the compiled plan probes a composite index, so that probe
	// needs an ON that fails only on data. Snapshot frozen views carry
	// no probe structures, so they always nest in FROM order.
	if snap || !whereSafe || !db.reorderJoins(p, sel, hasOrderBy) {
		for ji, j := range sel.Joins {
			jt := joinTables[ji]
			jp := joinPlan{left: j.Left, tbl: jt, frame: ji + 1, displayTable: j.Table.Table, estRows: jt.alive}
			jp.on = compileExpr(j.On, p.frames[:ji+2])
			if snap {
				jp.kind = jkLoop
			} else if col, outerExpr := equiJoinKey(j.On, jt, j.Table.name()); col != "" {
				jp.setProbe(col)
				jp.outer = compileExpr(outerExpr, p.frames[:ji+1])
			} else if comp, outerExpr := compositeJoinKey(j.On, jt, j.Table.name()); comp != nil && onSafe(j.On, p.frames[:ji+2]) {
				jp.setComposite(comp)
				jp.outer = compileExpr(outerExpr, p.frames[:ji+1])
			} else {
				jp.kind = jkLoop
			}
			p.joins = append(p.joins, jp)
		}
	}

	if sel.Where != nil {
		p.where = compileExpr(sel.Where, p.frames)
		// Key filter: a WHERE that reads only the walked column is
		// decided on the index entry, before the row is fetched.
		if a := &p.access; a.kind == accessRange && len(sel.Joins) == 0 {
			if ci := whereKeyColumn(sel.Where, p.frames); ci >= 0 && strings.EqualFold(base.cols[ci].def.Name, a.col) {
				p.keyFilter, p.keyCol = true, ci
			}
		}
	}

	if !p.aggregate {
		db.compileProjection(p, sel)
		if err := db.compileOrderLimits(p, sel, orderEligible); err != nil {
			return nil, err
		}
	}

	// Validity inputs: replan when DDL changes or any referenced table
	// crosses a size-class boundary (cost estimates go stale).
	seen := map[*table]bool{}
	for _, f := range p.frames {
		if !seen[f.tbl] {
			seen[f.tbl] = true
			p.sizes = append(p.sizes, tableSize{t: f.tbl, class: sizeClass(f.tbl.alive)})
		}
	}
	return p, nil
}

// chooseAccess enumerates candidate access paths for one table, named
// name in the statement, from the WHERE conjuncts and picks the
// cheapest; with joins in play only qualified conjuncts count
// (requireQualified). Estimates: a point lookup on a key column returns
// one row; a hash bucket returns alive/distinct rows; a composite
// prefix returns alive/distinctPrefixes rows (a further range predicate
// keeps about a third of the segment); a bare range keeps about a third
// of the table; a scan reads everything. When ORDER BY is present,
// paths that cannot produce index order pay a doubled cost for the sort.
func (db *DB) chooseAccess(p *SelectPlan, base *table, where Expr, name string, requireQualified bool,
	orderEligible bool, orderCols []string, orderDesc bool, hasOrderBy bool, snap bool) accessPath {
	eqs := collectEq(where, base, name, requireQualified)
	ranges := collectRanges(where, base, name, requireQualified)
	eqByCol := map[string]eqConjunct{}
	for _, eq := range eqs {
		eqByCol[eq.colLower] = eq
	}
	rangeByCol := map[string]*rangeConjunct{}
	for _, rc := range ranges {
		rangeByCol[rc.colLower] = rc
	}

	alive := float64(base.alive)
	// A point lookup costs one probe, but never more than the table
	// holds: on an empty table every estimate is zero and the tie is
	// broken by enumeration order, keeping the point-path labels.
	pointCost := 1.0
	if alive < 1 {
		pointCost = alive
	}
	var cands []planCandidate

	// Snapshot mode: the only point path is a record-store fetch keyed
	// by an int primary key; everything else scans the frozen row slice.
	if snap {
		for _, eq := range eqs {
			if base.snapPK >= 0 && base.fetch != nil && base.colIdx[eq.colLower] == base.snapPK {
				cands = append(cands, planCandidate{
					path: accessPath{kind: accessSnapPK, col: eq.col, label: "PRIMARY KEY",
						eq: []compiledExpr{compileExpr(eq.val, nil)}, est: pointCost},
					cost: pointCost,
				})
				break
			}
		}
		cands = append(cands, planCandidate{path: accessPath{kind: accessScan, est: alive}, cost: alive})
		best := cands[0]
		bestEff := effectiveCost(best, hasOrderBy)
		for _, c := range cands[1:] {
			if eff := effectiveCost(c, hasOrderBy); eff < bestEff {
				best, bestEff = c, eff
			}
		}
		return best.path
	}

	// Point lookups from equality conjuncts, in AND-walk order. The
	// per-column path follows table.lookup's precedence: primary key,
	// then hash index, then unique map. The hash estimate is floored at
	// three distinct values: below that, cardinality on a tiny table is
	// noise, and keeping the point path preserves the interpreter's row
	// order.
	for _, eq := range eqs {
		i := base.colIdx[eq.colLower]
		val := []compiledExpr{compileExpr(eq.val, nil)}
		switch {
		case i == base.pk:
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessPK, col: eq.col, label: "PRIMARY KEY", eq: val, est: pointCost},
				cost: pointCost,
			})
		case base.indexes[eq.colLower] != nil:
			idx := base.indexes[eq.colLower]
			distinct := len(idx)
			if distinct < 3 {
				distinct = 3
			}
			cost := alive / float64(distinct)
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessHash, col: eq.col, label: accessKind(base, eq.col), hashIdx: idx, eq: val, est: cost},
				cost: cost,
			})
		case base.uniques[eq.colLower] != nil:
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessUnique, col: eq.col, label: "UNIQUE", uniqMap: base.uniques[eq.colLower], eq: val, est: pointCost},
				cost: pointCost,
			})
		}
	}

	// Composite indexes: consume the longest equality prefix, then an
	// optional range on the next column, then index-order output.
	for _, comp := range base.composites {
		k := 0
		var eqVals []compiledExpr
		for k < len(comp.cols) {
			eq, ok := eqByCol[comp.colNames[k]]
			if !ok {
				break
			}
			eqVals = append(eqVals, compileExpr(eq.val, nil))
			k++
		}
		var los, his []boundCand
		rangeCol := ""
		if k < len(comp.cols) {
			if rc, ok := rangeByCol[comp.colNames[k]]; ok {
				los = compileBounds(rc.los)
				his = compileBounds(rc.his)
				rangeCol = rc.col
			}
		}
		elim := orderEligible && sameColumnList(comp.colNames[k:], orderCols)
		if k == 0 && rangeCol == "" && !elim {
			continue
		}
		cost := alive
		if k > 0 {
			d := comp.distinctPrefixes(k)
			if d < 1 {
				d = 1
			}
			cost = alive / float64(d)
		}
		if rangeCol != "" {
			cost /= 3
		}
		cands = append(cands, planCandidate{
			path: accessPath{
				kind: accessComposite, comp: comp, eq: eqVals,
				los: los, his: his, rangeCol: rangeCol,
				reverse: elim && orderDesc, est: cost,
			},
			cost: cost,
			elim: elim,
		})
	}

	// Single-column ordered-index range scans.
	for _, rc := range ranges {
		ix, ok := base.ordered[rc.colLower]
		if !ok {
			continue
		}
		elim := orderEligible && len(orderCols) == 1 && orderCols[0] == rc.colLower
		cost := alive / 3
		cands = append(cands, planCandidate{
			path: accessPath{
				kind: accessRange, col: rc.col, ord: ix,
				los: compileBounds(rc.los), his: compileBounds(rc.his),
				reverse: elim && orderDesc, est: cost,
			},
			cost: cost,
			elim: elim,
		})
	}

	// A full ordered-index walk purely for ORDER BY. The single-column
	// orderedIndex skips NULLs, so the walk is a complete view only for
	// columns that cannot hold one.
	if orderEligible && len(orderCols) == 1 && rangeByCol[orderCols[0]] == nil {
		if ix, ok := base.ordered[orderCols[0]]; ok {
			i := base.colIdx[orderCols[0]]
			if base.cols[i].def.NotNull || i == base.pk {
				cands = append(cands, planCandidate{
					path: accessPath{kind: accessRange, col: orderCols[0], ord: ix, orderWalk: true, reverse: orderDesc, est: alive},
					cost: alive,
					elim: true,
				})
			}
		}
	}

	cands = append(cands, planCandidate{
		path: accessPath{kind: accessScan, est: alive},
		cost: alive,
	})

	best := cands[0]
	bestEff := effectiveCost(best, hasOrderBy)
	for _, c := range cands[1:] {
		if eff := effectiveCost(c, hasOrderBy); eff < bestEff {
			best, bestEff = c, eff
		}
	}
	if best.elim {
		p.sortElim = true
	}
	return best.path
}

func effectiveCost(c planCandidate, hasOrderBy bool) float64 {
	if hasOrderBy && !c.elim {
		return c.cost * 2
	}
	return c.cost
}

// compositeJoinKey finds an ON conjunct "newTable.col = <outer expr>"
// whose column leads a composite index of the new table.
func compositeJoinKey(on Expr, jt *table, jtName string) (*compositeIndex, Expr) {
	switch x := on.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			if c, e := compositeJoinKey(x.L, jt, jtName); c != nil {
				return c, e
			}
			return compositeJoinKey(x.R, jt, jtName)
		case "=":
			if c, e := compositeJoinSide(x.L, x.R, jt, jtName); c != nil {
				return c, e
			}
			return compositeJoinSide(x.R, x.L, jt, jtName)
		}
	}
	return nil, nil
}

func compositeJoinSide(colSide, otherSide Expr, jt *table, jtName string) (*compositeIndex, Expr) {
	ref, ok := colSide.(*ColRef)
	if !ok || !strings.EqualFold(ref.Table, jtName) {
		return nil, nil
	}
	lower := strings.ToLower(ref.Column)
	if refersTo(otherSide, jtName) {
		return nil, nil
	}
	for _, comp := range jt.composites {
		if comp.colNames[0] == lower {
			return comp, otherSide
		}
	}
	return nil, nil
}

// compileProjection precomputes the projection steps and both column
// headers the interpreter can produce: stars expand per frame when rows
// exist, but an empty result renders "*" literally and drops "alias.*".
func (db *DB) compileProjection(p *SelectPlan, sel *SelectStmt) {
	for _, c := range sel.Columns {
		switch {
		case c.Star == "*":
			p.hasStar = true
			step := projStep{}
			for fi, f := range p.frames {
				step.frames = append(step.frames, fi)
				p.cols = append(p.cols, f.tbl.columnNames()...)
			}
			p.colsEmpty = append(p.colsEmpty, "*")
			p.proj = append(p.proj, step)
		case c.Star != "":
			p.hasStar = true
			step := projStep{frames: []int{}}
			want := strings.ToLower(c.Star)
			for fi, f := range p.frames {
				if f.name == want {
					step.frames = append(step.frames, fi)
					p.cols = append(p.cols, f.tbl.columnNames()...)
				}
			}
			p.proj = append(p.proj, step)
		default:
			name := c.Alias
			if name == "" {
				name = exprName(c.Expr)
			}
			p.cols = append(p.cols, name)
			p.colsEmpty = append(p.colsEmpty, name)
			p.proj = append(p.proj, projStep{expr: compileExpr(c.Expr, p.frames)})
		}
	}
}

func (db *DB) compileOrderLimits(p *SelectPlan, sel *SelectStmt, orderEligible bool) error {
	for _, term := range sel.OrderBy {
		k := orderKey{expr: compileExpr(term.Expr, p.frames), desc: term.Desc, outCol: -1}
		if ref, ok := term.Expr.(*ColRef); ok {
			for i, c := range p.cols {
				if strings.EqualFold(c, ref.Column) {
					k.outCol = i
					break
				}
			}
			if k.outCol < 0 {
				k.errFallback = fmt.Errorf("rdb: ORDER BY references unknown output column %q", ref.Column)
			}
		} else {
			k.errFallback = fmt.Errorf("rdb: ORDER BY over aggregates must reference output columns")
		}
		p.orderBy = append(p.orderBy, k)
	}
	if sel.Limit != nil {
		p.limit = compileExpr(sel.Limit, nil)
	}
	if sel.Offset != nil {
		p.offset = compileExpr(sel.Offset, nil)
	}
	return nil
}
