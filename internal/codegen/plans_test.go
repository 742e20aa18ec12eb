package codegen

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"webmlgo/internal/rdb"
)

// figure1PlanDB runs the generated DDL and seeds a small Figure 1
// corpus: 5 volumes of 2 issues of 5 papers (50), 20 keywords, 3
// keywords per paper.
func figure1PlanDB(t *testing.T, art *Artifacts) *rdb.DB {
	t.Helper()
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("DDL %q: %v", stmt, err)
		}
	}
	exec := func(sql string, args ...rdb.Value) {
		if _, err := db.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for k := 1; k <= 20; k++ {
		exec(`INSERT INTO keyword (word) VALUES (?)`, fmt.Sprintf("kw%02d", k))
	}
	paper := 0
	for v := 1; v <= 5; v++ {
		exec(`INSERT INTO volume (title, year) VALUES (?, ?)`, fmt.Sprintf("Volume %d", v), 2000+v)
		for i := 1; i <= 2; i++ {
			exec(`INSERT INTO issue (number, month, fk_volumetoissue) VALUES (?, ?, ?)`, i, "May", v)
			issue := (v-1)*2 + i
			for j := 0; j < 5; j++ {
				paper++
				exec(`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
					fmt.Sprintf("Paper %02d on schema mapping", paper), "-", 10, issue)
				for n := 0; n < 3; n++ {
					exec(`INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)`, paper, (paper+n*7)%20+1)
				}
			}
		}
	}
	return db
}

// TestGeneratedPlansScanNoTableOnIndexedEquality explains every
// generated content-unit, count and level query on a seeded Figure 1
// database. A query with an equality on an indexed column of any frame
// must not scan a table: the join is driven from that frame.
func TestGeneratedPlansScanNoTableOnIndexedEquality(t *testing.T) {
	_, art := gen(t)
	db := figure1PlanDB(t, art)
	indexed := map[string]bool{"oid": true}
	ddlIndex := regexp.MustCompile(`^CREATE INDEX \w+ ON \w+\((\w+)\)$`)
	for _, stmt := range art.DDL {
		if m := ddlIndex.FindStringSubmatch(stmt); m != nil {
			indexed[m[1]] = true
		}
	}
	equality := regexp.MustCompile(`\b\w+\.(\w+) = \?`)
	plans := map[string]string{}
	checked := 0
	for _, d := range art.Repo.Units() {
		queries := []string{d.Query, d.CountQuery}
		for _, lvl := range d.Levels {
			queries = append(queries, lvl.Query)
		}
		for i, q := range queries {
			if !strings.HasPrefix(q, "SELECT") {
				continue
			}
			plan, err := db.Explain(q)
			if err != nil {
				t.Fatalf("unit %s: %q: %v", d.ID, q, err)
			}
			plan = strings.TrimSuffix(strings.TrimSuffix(plan, "\nPLAN: compiled"), "\nPLAN: cached")
			plans[fmt.Sprintf("%s/%d", d.ID, i)] = plan
			for _, m := range equality.FindAllStringSubmatch(q, -1) {
				if indexed[m[1]] {
					checked++
					if strings.Contains(plan, "SCAN ") {
						t.Errorf("unit %s: %q has an indexed equality on %s but scans:\n%s", d.ID, q, m[1], plan)
					}
					break
				}
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d queries carry an indexed equality", checked)
	}
	for key, want := range map[string]string{
		"paperKeywords/0": "ACCESS rel_paperkeyword BY INDEX ON from_oid (est 3 rows) (reordered driver)\n" +
			"INNER JOIN keyword BY PRIMARY KEY ON oid\n" +
			"SORT 1 keys",
		"searchIndex/1": "ACCESS paper BY ORDERED INDEX ON title (est 50 rows)\n" +
			"KEY FILTER ON title",
		"searchIndex/0": "ACCESS paper BY ORDERED INDEX ON title (est 50 rows)\n" +
			"KEY FILTER ON title\n" +
			"ORDER BY INDEX (sort eliminated, 1 keys)\n" +
			"LIMIT",
	} {
		if plans[key] != want {
			t.Errorf("%s plan:\n%s\nwant:\n%s", key, plans[key], want)
		}
	}
}
