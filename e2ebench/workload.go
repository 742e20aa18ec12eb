package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The three workloads. Each draws its page requests from the corpus
// with the run's seed; anon-write adds the content manager's writes.
const (
	wMemberHot = "member-hot"
	wLongTail  = "long-tail"
	wAnonWrite = "anon-write"
)

var workloadNames = []string{wMemberHot, wLongTail, wAnonWrite}

// Page kinds, for the body checks.
type pageKind int

const (
	kVolumes pageKind = iota // volumesPage
	kVolume                  // volumePage?volume=
	kPaper                   // paperPage?paper=
	kSearch                  // searchResults?kw=
	kManage                  // managePage (content manager)
)

// PageReq is one page GET of a stream.
type PageReq struct {
	Kind   pageKind
	Arg    int // volume or paper oid, or search word index
	Target string
	Member bool // sent with the member's session cookie
	Due    time.Duration
}

// hotVolumes is how many volumes member-hot and anon-write readers
// visit; zipfS skews visits toward the first of them.
const (
	hotVolumes = 40
	zipfS      = 1.1
)

// mix draws page requests for one workload.
type mix struct {
	name   string
	corpus *Corpus
	rng    *rand.Rand
	zipf   *rand.Zipf
	hot    []int // volume oids by popularity rank
	member bool
}

func newMix(name string, c *Corpus, seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{name: name, corpus: c, rng: rng, member: name != wAnonWrite}
	perm := rng.Perm(len(c.VolumeTitles))
	for _, i := range perm[:min(hotVolumes, len(perm))] {
		m.hot = append(m.hot, i+1)
	}
	m.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(m.hot)-1))
	return m
}

func (m *mix) next() PageReq {
	var r PageReq
	switch m.name {
	case wLongTail:
		switch x := m.rng.Float64(); {
		case x < 0.60:
			r = pageReq(kPaper, 1+m.rng.Intn(len(m.corpus.PaperTitles)))
		case x < 0.95:
			r = pageReq(kVolume, 1+m.rng.Intn(len(m.corpus.VolumeTitles)))
		default:
			r = pageReq(kSearch, m.rng.Intn(len(vocabulary)))
		}
	default:
		if m.rng.Float64() < 0.20 {
			r = pageReq(kVolumes, 0)
		} else {
			r = pageReq(kVolume, m.hot[m.zipf.Uint64()])
		}
	}
	r.Member = m.member
	return r
}

func pageReq(k pageKind, arg int) PageReq {
	r := PageReq{Kind: k, Arg: arg}
	switch k {
	case kVolumes:
		r.Target = "/page/volumesPage"
	case kVolume:
		r.Target = "/page/volumePage?volume=" + strconv.Itoa(arg)
	case kPaper:
		r.Target = "/page/paperPage?paper=" + strconv.Itoa(arg)
	case kSearch:
		r.Target = "/page/searchResults?kw=" + url.QueryEscape(vocabulary[arg])
	case kManage:
		r.Target = "/page/managePage"
	}
	return r
}

// schedule draws a Poisson arrival stream at rate per second over d.
func (m *mix) schedule(rate float64, d time.Duration) []PageReq {
	var out []PageReq
	if rate <= 0 {
		return nil
	}
	var t time.Duration
	for {
		t += time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		r := m.next()
		r.Due = t
		out = append(out, r)
	}
}

// Checker validates response bodies against the corpus.
type Checker struct {
	c *Corpus
	// volume oid -> first and last paper title of the volume, as the
	// nested index lists them (ordered by title within an issue).
	volPapers map[int][2]string
	// search word index -> expected total and first title.
	searchN     []int
	searchFirst []string
}

func newChecker(c *Corpus) *Checker {
	ch := &Checker{c: c, volPapers: map[int][2]string{}}
	byIssue := map[int][]string{}
	for p, t := range c.PaperTitles {
		byIssue[c.PaperIssue[p]] = append(byIssue[c.PaperIssue[p]], t)
	}
	for issue, vol := range c.IssueVolume {
		ts := byIssue[issue+1]
		if len(ts) == 0 {
			continue
		}
		sort.Strings(ts)
		e := ch.volPapers[vol]
		if e[0] == "" {
			e[0] = ts[0]
		}
		e[1] = ts[len(ts)-1]
		ch.volPapers[vol] = e
	}
	for _, w := range vocabulary {
		n, first := 0, ""
		for _, t := range c.PaperTitles {
			if strings.Contains(strings.ToLower(t), w) {
				n++
				if first == "" || t < first {
					first = t
				}
			}
		}
		ch.searchN = append(ch.searchN, n)
		ch.searchFirst = append(ch.searchFirst, first)
	}
	return ch
}

// Check returns why a page response is wrong, or "" if it is right.
func (ch *Checker) Check(r PageReq, resp *Response) string {
	if resp.Status != 200 {
		return fmt.Sprintf("%s: status %d", r.Target, resp.Status)
	}
	b := resp.Body
	need := func(s string) string {
		if !bytes.Contains(b, []byte(s)) {
			return fmt.Sprintf("%s: body lacks %q", r.Target, s)
		}
		return ""
	}
	var wants []string
	switch r.Kind {
	case kVolumes:
		wants = []string{`data-unit="volIndex"`, ch.c.VolumeTitles[0], ch.c.VolumeTitles[len(ch.c.VolumeTitles)-1]}
	case kVolume:
		vp := ch.volPapers[r.Arg]
		wants = []string{`data-unit="volumeData"`, "<dd>" + ch.c.VolumeTitles[r.Arg-1] + "</dd>",
			`data-unit="issuesPapers"`, vp[0], vp[1]}
	case kPaper:
		wants = []string{`data-unit="paperData"`, "<dd>" + ch.c.PaperTitles[r.Arg-1] + "</dd>", `data-unit="paperKeywords"`}
		for _, k := range ch.c.PaperKeywords[r.Arg-1] {
			wants = append(wants, "<li>"+ch.c.Words[k-1]+"</li>")
		}
	case kSearch:
		wants = []string{`data-unit="searchIndex"`,
			fmt.Sprintf(" of %d</div>", ch.searchN[r.Arg]), ">" + ch.searchFirst[r.Arg] + "</a>"}
	case kManage:
		wants = []string{`data-unit="manageIndex"`}
	}
	for _, w := range wants {
		if msg := need(w); msg != "" {
			return msg
		}
	}
	return ""
}

// manageOid finds the oid of the volume titled title in a managePage
// body (its delete link), or 0.
func manageOid(body []byte, title string) int {
	i := bytes.Index(body, []byte(`">`+title+`</a>`))
	if i < 0 {
		return 0
	}
	j := bytes.LastIndex(body[:i], []byte("oid="))
	if j < 0 {
		return 0
	}
	n, err := strconv.Atoi(string(body[j+len("oid=") : i]))
	if err != nil {
		return 0
	}
	return n
}
