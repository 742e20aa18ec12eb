package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"webmlgo/internal/codegen"
	"webmlgo/internal/fixture"
	"webmlgo/internal/rdb"
)

// Shape fixes the corpus size. The seed only chooses names, years and
// keyword assignments, so every seed gives the same row counts and
// nearly the same bytes.
type Shape struct {
	Volumes          int `json:"volumes"`
	IssuesPerVolume  int `json:"issues_per_volume"`
	PapersPerIssue   int `json:"papers_per_issue"`
	Keywords         int `json:"keywords"`
	KeywordsPerPaper int `json:"keywords_per_paper"`
}

func (s Shape) papers() int { return s.Volumes * s.IssuesPerVolume * s.PapersPerIssue }

// Corpus is the generated content the request streams and the body
// checks are derived from. Oids are 1-based and dense.
type Corpus struct {
	VolumeTitles []string
	VolumeYears  []int
	PaperTitles  []string
	PaperIssue   []int // paper index -> issue oid
	IssueVolume  []int // issue index -> volume oid
	Words        []string
	// PaperKeywords lists each paper's keyword oids.
	PaperKeywords [][]int
}

var vocabulary = strings.Fields(`adaptive algebraic approximate
bounded caching compiled concurrent consistent declarative distributed
dynamic efficient elastic federated generic hierarchical incremental
indexed integrated lazy materialized model-driven navigational optimal
parallel persistent relational replicated scalable semantic structured
temporal transactional versioned
access analysis architecture browsing catalogs clustering components
constraints containers data design evaluation fragments generation
hypertext integration joins links maintenance mapping models navigation
pages patterns performance personalization planning processing queries
recovery schemas search services sessions sites storage templates
transactions units updates views workloads`)

var months = []string{"January", "March", "May", "July", "September", "November"}

// GenerateCorpus derives the corpus content from seed.
func GenerateCorpus(shape Shape, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	word := func() string { return vocabulary[rng.Intn(len(vocabulary))] }
	title := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = word()
		}
		ws[0] = strings.ToUpper(ws[0][:1]) + ws[0][1:]
		return strings.Join(ws, " ")
	}
	c := &Corpus{}
	for v := 0; v < shape.Volumes; v++ {
		c.VolumeTitles = append(c.VolumeTitles, fmt.Sprintf("%s Transactions vol. %d", title(2), v+1))
		c.VolumeYears = append(c.VolumeYears, 1950+rng.Intn(75))
		for i := 0; i < shape.IssuesPerVolume; i++ {
			c.IssueVolume = append(c.IssueVolume, v+1)
		}
	}
	seen := map[string]bool{}
	for len(c.Words) < shape.Keywords {
		w := word() + "-" + word()
		if !seen[w] {
			seen[w] = true
			c.Words = append(c.Words, w)
		}
	}
	for p := 0; p < shape.papers(); p++ {
		// The trailing serial keeps every paper title unique, so a
		// paperPage body identifies its paper.
		t := fmt.Sprintf("%s (#%d)", title(3+rng.Intn(4)), p+1)
		c.PaperTitles = append(c.PaperTitles, t)
		c.PaperIssue = append(c.PaperIssue, p/shape.PapersPerIssue+1)
		kws := rng.Perm(shape.Keywords)[:shape.KeywordsPerPaper]
		for i := range kws {
			kws[i]++
		}
		c.PaperKeywords = append(c.PaperKeywords, kws)
	}
	return c
}

func abstractOf(rng *rand.Rand) string {
	ws := make([]string, 24+rng.Intn(16))
	for i := range ws {
		ws[i] = vocabulary[rng.Intn(len(vocabulary))]
	}
	return strings.Join(ws, " ") + "."
}

// buildTemplate writes the corpus into a fresh durable database at dir
// and checkpoints it, so the directory holds a complete page file and
// an empty log. Runs copy it byte for byte instead of reusing it.
func buildTemplate(dir string, shape Shape, seed int64, c *Corpus) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := rdb.OpenDurable(dir)
	if err != nil {
		return err
	}
	if err := loadCorpus(db, shape, seed, c); err != nil {
		db.Close()
		return err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func loadCorpus(db *rdb.DB, shape Shape, seed int64, c *Corpus) error {
	gen, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		return err
	}
	art, err := gen.Generate()
	if err != nil {
		return err
	}
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("corpus DDL: %w", err)
		}
	}
	// Abstracts come from their own stream so they do not shift the
	// titles GenerateCorpus derived.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var stmts []func(tx *rdb.Tx) error
	add := func(sql string, args ...rdb.Value) {
		stmts = append(stmts, func(tx *rdb.Tx) error {
			_, err := tx.Exec(sql, args...)
			return err
		})
	}
	for v, t := range c.VolumeTitles {
		add(`INSERT INTO volume (oid, title, year) VALUES (?, ?, ?)`, v+1, t, c.VolumeYears[v])
	}
	for i, vol := range c.IssueVolume {
		add(`INSERT INTO issue (oid, number, month, fk_volumetoissue) VALUES (?, ?, ?, ?)`,
			i+1, i%shape.IssuesPerVolume+1, months[i%len(months)], vol)
	}
	for k, w := range c.Words {
		add(`INSERT INTO keyword (oid, word) VALUES (?, ?)`, k+1, w)
	}
	rel := 0
	for p, t := range c.PaperTitles {
		add(`INSERT INTO paper (oid, title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?, ?)`,
			p+1, t, abstractOf(rng), 4+rng.Intn(40), c.PaperIssue[p])
		for _, k := range c.PaperKeywords[p] {
			rel++
			add(`INSERT INTO rel_paperkeyword (oid, from_oid, to_oid) VALUES (?, ?, ?)`, rel, p+1, k)
		}
	}
	const perTx = 2000
	for len(stmts) > 0 {
		n := min(perTx, len(stmts))
		tx := db.Begin()
		for _, s := range stmts[:n] {
			if err := s(tx); err != nil {
				tx.Rollback()
				return fmt.Errorf("corpus insert: %w", err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("corpus commit: %w", err)
		}
		stmts = stmts[n:]
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
