package rdb

import (
	"fmt"
	"strings"
	"testing"
)

// Tests for the cost-chosen join driver and key-filtered ordered-index
// walks: the plans they produce, the plans they must leave alone, and
// the row faults they save on a paged durable engine.

func explainLines(t *testing.T, db *DB, sql string) string {
	t.Helper()
	plan := mustExplainDB(t, db, sql)
	return strings.TrimSuffix(strings.TrimSuffix(plan, "\nPLAN: compiled"), "\nPLAN: cached")
}

func mustExplainDB(t *testing.T, db *DB, sql string) string {
	t.Helper()
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return plan
}

func TestReorderBridgeDriver(t *testing.T) {
	db := diffFixture(t)
	sql := `SELECT s.oid, s.title FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = ? ORDER BY s.oid`
	want := "ACCESS emp_skill BY INDEX ON emp_oid (est 2 rows) (reordered driver)\n" +
		"INNER JOIN skill BY PRIMARY KEY ON oid\n" +
		"SORT 1 keys"
	if got := explainLines(t, db, sql); got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
	compareEngines(t, db, sql, []Value{int64(1)})

	// ANALYZE shows the reordered driver and its probes.
	out, err := db.ExplainAnalyze(sql, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(reordered driver) (actual 3 rows, 1 probes,") ||
		!strings.Contains(out, "INNER JOIN skill BY PRIMARY KEY ON oid (actual in 3, out 3, 3 probes,") {
		t.Fatalf("analyze:\n%s", out)
	}
}

func TestReorderDriverFKOnParent(t *testing.T) {
	db := diffFixture(t)
	sql := `SELECT d.oid, d.name FROM dept d JOIN emp e ON e.dept_oid = d.oid WHERE e.oid = ? ORDER BY d.oid`
	want := "ACCESS emp BY PRIMARY KEY ON oid (est 1 rows) (reordered driver)\n" +
		"INNER JOIN dept BY PRIMARY KEY ON oid\n" +
		"SORT 1 keys"
	if got := explainLines(t, db, sql); got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
	for oid := int64(1); oid <= 9; oid++ {
		compareEngines(t, db, sql, []Value{oid})
	}
}

func TestReorderDriverChainAndCount(t *testing.T) {
	db := diffFixture(t)
	chain := `SELECT e.oid, e.name, s.title FROM emp e JOIN emp_skill es ON es.emp_oid = e.oid JOIN skill s ON s.oid = es.skill_oid WHERE s.oid = ? ORDER BY e.oid, s.oid`
	want := "ACCESS skill BY PRIMARY KEY ON oid (est 1 rows) (reordered driver)\n" +
		"INNER JOIN emp_skill BY INDEX ON skill_oid\n" +
		"INNER JOIN emp BY PRIMARY KEY ON oid\n" +
		"SORT 2 keys"
	if got := explainLines(t, db, chain); got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
	count := `SELECT COUNT(*) FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = ?`
	if got := explainLines(t, db, count); !strings.HasPrefix(got, "ACCESS emp_skill BY INDEX ON emp_oid") {
		t.Fatalf("count plan:\n%s", got)
	}
	for oid := int64(0); oid <= 9; oid++ {
		compareEngines(t, db, chain, []Value{oid})
		compareEngines(t, db, count, []Value{oid})
	}
}

// TestNoReorderDriverWhenOrderShows pins the statements that must keep
// FROM order: an ORDER BY that leaves ties, no ORDER BY at all, a LEFT
// JOIN, a DISTINCT, an AVG, a function in a condition, and a tie on
// cost.
func TestNoReorderDriverWhenOrderShows(t *testing.T) {
	db := diffFixture(t)
	for _, sql := range []string{
		`SELECT s.title, s.level FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1 ORDER BY s.level`,
		`SELECT s.title FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1`,
		`SELECT s.oid, es.emp_oid FROM skill s LEFT JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1 ORDER BY s.oid, es.oid`,
		`SELECT DISTINCT s.oid FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1 ORDER BY s.oid`,
		`SELECT AVG(s.level) FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1`,
		`SELECT s.oid FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1 AND LOWER(s.title) = 'go' ORDER BY s.oid`,
		`SELECT e.name FROM emp e JOIN dept d ON d.oid = e.dept_oid WHERE e.oid = 1 AND d.oid = 1 ORDER BY e.oid`,
	} {
		plan := explainLines(t, db, sql)
		if strings.Contains(plan, "reordered") {
			t.Fatalf("%s: reordered:\n%s", sql, plan)
		}
		compareEngines(t, db, sql, nil)
	}
}

// TestNoReorderDriverOnSnapshot: snapshot plans keep FROM order.
func TestNoReorderDriverOnSnapshot(t *testing.T) {
	db := diffFixture(t)
	snap := db.Snapshot()
	defer snap.Close()
	sql := `SELECT s.oid, s.title FROM skill s JOIN emp_skill es ON es.skill_oid = s.oid WHERE es.emp_oid = 1 ORDER BY s.oid`
	out, err := snap.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "reordered") || !strings.HasPrefix(out, "SCAN skill") {
		t.Fatalf("snapshot plan reordered:\n%s", out)
	}
	got, err := snap.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryInterpreted(sql)
	if err != nil {
		t.Fatal(err)
	}
	if rowsExact(got) != rowsExact(want) {
		t.Fatalf("snapshot rows:\n%s\nwant:\n%s", rowsExact(got), rowsExact(want))
	}
}

func TestKeyFilterWalks(t *testing.T) {
	db := diffFixture(t)
	count := `SELECT COUNT(*) FROM emp WHERE name LIKE ?`
	want := "ACCESS emp BY ORDERED INDEX ON name (est 8 rows)\nKEY FILTER ON name"
	if got := explainLines(t, db, count); got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
	out, err := db.ExplainAnalyze(count, "%a%")
	if err != nil {
		t.Fatal(err)
	}
	// ann, dan, fay, hal, cat: five of eight entries fetch their rows.
	if !strings.Contains(out, "KEY FILTER ON name (actual in 8, out 5)") ||
		!strings.Contains(out, "(actual 5 rows, 1 probes,") {
		t.Fatalf("analyze:\n%s", out)
	}

	page := `SELECT name FROM emp WHERE name LIKE ? ORDER BY name LIMIT 2`
	out, err = db.ExplainAnalyze(page, "%a%")
	if err != nil {
		t.Fatal(err)
	}
	// The walk stops at the second match (cat): ann, bob, cat are read.
	if !strings.Contains(out, "ORDER BY INDEX (sort eliminated") ||
		!strings.Contains(out, "KEY FILTER ON name (actual in 3, out 2)") {
		t.Fatalf("analyze:\n%s", out)
	}
	compareEngines(t, db, page, []Value{"%a%"})

	// A scalar aggregate whose order could show, or a nullable column,
	// keeps the scan.
	for _, sql := range []string{
		`SELECT AVG(salary) FROM emp WHERE name LIKE '%a%'`,
		`SELECT COUNT(*) FROM emp WHERE bonus <> 3`,
		`SELECT name, COUNT(*) FROM emp WHERE name LIKE '%a%'`,
	} {
		if plan := explainLines(t, db, sql); !strings.HasPrefix(plan, "SCAN emp") {
			t.Fatalf("%s: plan:\n%s", sql, plan)
		}
		compareEngines(t, db, sql, nil)
	}
}

// TestKeyFilterErrorFallback: a WHERE that fails on the key alone still
// fetches the row, so the error text is the interpreter's.
func TestKeyFilterErrorFallback(t *testing.T) {
	db := diffFixture(t)
	for _, sql := range []string{
		`SELECT COUNT(*) FROM emp WHERE name LIKE 5`,
		`SELECT name FROM emp WHERE name > 'b' AND name + 1 = 2 ORDER BY name`,
	} {
		if _, err := db.Query(sql); err == nil {
			t.Fatalf("%s: no error", sql)
		}
		compareEngines(t, db, sql, nil)
	}
}

func TestLikeEscapedWildcard(t *testing.T) {
	for _, c := range []struct {
		s, p string
		want bool
	}{
		{"100%", "100\\%", true},
		{"1000", "100\\%", false},
		{"a_b", "%\\_%", true},
		{"ab", "%\\_%", false},
		{`a\b`, `a\\b`, true},
		{"ab", `a\\b`, false},
		{"ab", `a\b`, true},
		{`a\`, `a\`, true},
	} {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Fatalf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	for _, s := range []string{"", "plain", "100%", "a_b", `back\slash`, `%_\`} {
		if !likeMatch(s, "%"+EscapeLike(s)+"%") || !likeMatch(strings.ToUpper(s), EscapeLike(s)) {
			t.Fatalf("EscapeLike(%q) does not match itself", s)
		}
	}
	if likeMatch("anything", "%"+EscapeLike("_")+"%") {
		t.Fatal("escaped _ matched a title without one")
	}
}

// bridgeDB builds a paged durable database of nPapers papers, nKeys
// keywords and kw bridge rows per paper, shaped like a generated N:M
// relationship (every 25th title mentions "mapping"), and reopens it
// so every row starts paged out.
func bridgeDB(tb testing.TB, nPapers, nKeys, kw int, opts DurableOptions) *DB {
	tb.Helper()
	dir := tb.TempDir()
	db, err := OpenDurableOpts(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range []string{
		`CREATE TABLE paper (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL)`,
		`CREATE TABLE keyword (oid INTEGER PRIMARY KEY AUTOINCREMENT, word TEXT UNIQUE)`,
		`CREATE TABLE rel_paperkeyword (oid INTEGER PRIMARY KEY AUTOINCREMENT, from_oid INTEGER NOT NULL, to_oid INTEGER NOT NULL)`,
		`CREATE INDEX idx_rel_paperkeyword_from ON rel_paperkeyword(from_oid)`,
		`CREATE INDEX idx_rel_paperkeyword_to ON rel_paperkeyword(to_oid)`,
		`CREATE ORDERED INDEX ord_paper_title ON paper(title)`,
	} {
		if _, err := db.Exec(s); err != nil {
			tb.Fatalf("%s: %v", s, err)
		}
	}
	tx := db.Begin()
	for k := 1; k <= nKeys; k++ {
		if _, err := tx.Exec(`INSERT INTO keyword (word) VALUES (?)`, fmt.Sprintf("word%03d", k)); err != nil {
			tb.Fatal(err)
		}
	}
	for p := 1; p <= nPapers; p++ {
		title := fmt.Sprintf("Paper %03d on storage", p)
		if p%25 == 0 {
			title = fmt.Sprintf("Paper %03d on mapping", p)
		}
		if _, err := tx.Exec(`INSERT INTO paper (title) VALUES (?)`, title); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < kw; i++ {
			if _, err := tx.Exec(`INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)`,
				int64(p), int64((p*7+i*13)%nKeys+1)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	db, err = OpenDurableOpts(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db
}

// faultOpts keeps eight rows resident, so a query faults nearly every
// row it fetches.
var faultOpts = DurableOptions{PoolPages: 16, ResidentRows: 8}

// faultsDuring returns the rows q returned and the row faults it took.
func faultsDuring(t *testing.T, db *DB, sql string, args ...Value) (int, uint64) {
	t.Helper()
	before := db.EngineStats().RowFaults
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows.Len(), db.EngineStats().RowFaults - before
}

func TestBridgeJoinFaultsOnlyMatchingRows(t *testing.T) {
	db := bridgeDB(t, 100, 40, 3, faultOpts)
	sql := `SELECT t.oid, t.word FROM keyword t JOIN rel_paperkeyword b ON b.to_oid = t.oid WHERE b.from_oid = ? ORDER BY t.oid`
	for _, paper := range []int64{1, 42, 100} {
		matches, faults := faultsDuring(t, db, sql, paper)
		if matches != 3 {
			t.Fatalf("paper %d: %d keywords, want 3", paper, matches)
		}
		// Each match faults its bridge row and its keyword, nothing else.
		if limit := uint64(2 * (matches + 1)); faults > limit {
			t.Fatalf("paper %d: %d row faults for %d matches (limit %d)", paper, faults, matches, limit)
		}
	}
}

func TestLikeCountFaultsOnlyMatches(t *testing.T) {
	db := bridgeDB(t, 200, 10, 1, faultOpts)
	var count int64
	before := db.EngineStats().RowFaults
	rows, err := db.Query(`SELECT COUNT(*) FROM paper t WHERE t.title LIKE ?`, "%mapping%")
	if err != nil {
		t.Fatal(err)
	}
	faults := db.EngineStats().RowFaults - before
	count = rows.Data[0][0].(int64)
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
	if limit := uint64(2 * (count + 1)); faults > limit {
		t.Fatalf("%d row faults for %d matches (limit %d)", faults, count, limit)
	}
	// The page query fetches only the rows it returns.
	matches, faults := faultsDuring(t, db,
		`SELECT t.oid, t.title FROM paper t WHERE t.title LIKE ? ORDER BY t.title LIMIT 5 OFFSET ?`, "%mapping%", int64(0))
	if matches != 5 || faults > uint64(matches) {
		t.Fatalf("page: %d rows, %d row faults", matches, faults)
	}
}
