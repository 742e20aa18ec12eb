package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one timed request. Times are offsets from the phase start.
type Sample struct {
	Op   bool // an operation (create or delete), not a page
	ID   uint64
	Due  time.Duration
	Sent time.Duration
	End  time.Duration
	// Lateness is how far past Due the generator woke to send it; -1
	// when the request waited for a connection instead (backlog), which
	// is the system's delay, not the generator's.
	Lateness time.Duration
	Bytes    int
	OK       bool
}

// Latency is the request's time from when it was due.
func (s Sample) Latency() time.Duration { return s.End - s.Due }

// Gen drives the server over a fixed pool of keep-alive connections:
// never more than the pool holds, whichever stream sends.
type Gen struct {
	pool    chan *Conn
	conns   []*Conn
	checker *Checker
	ids     atomic.Uint64

	// manager is the content manager's session cookie.
	manager string

	mu       sync.Mutex
	attempts int64
	failures []string
	nfail    int64
	logging  bool
	log      []Sample
}

func newGen(addr string, conns int, checker *Checker) (*Gen, error) {
	g := &Gen{pool: make(chan *Conn, conns), checker: checker}
	for i := 0; i < conns; i++ {
		c, err := dial(addr)
		if err != nil {
			g.Close()
			return nil, err
		}
		resp, err := c.Do(http.MethodPost, "/login", "", 0, "user=member"+strconv.Itoa(i))
		if err != nil || resp.Status != 200 || resp.Cookie == "" {
			g.Close()
			return nil, fmt.Errorf("member login failed: %v", err)
		}
		c.member = resp.Cookie
		g.conns = append(g.conns, c)
		g.pool <- c
	}
	c := <-g.pool
	resp, err := c.Do(http.MethodPost, "/login", "", 0, "user=manager")
	g.pool <- c
	if err != nil || resp.Status != 200 || resp.Cookie == "" {
		g.Close()
		return nil, fmt.Errorf("manager login failed: %v", err)
	}
	g.manager = resp.Cookie
	return g, nil
}

// Close closes every connection.
func (g *Gen) Close() {
	for _, c := range g.conns {
		c.Close()
	}
}

// fail records one failed request.
func (g *Gen) fail(msg string) {
	g.mu.Lock()
	g.nfail++
	if len(g.failures) < 20 {
		g.failures = append(g.failures, msg)
	}
	g.mu.Unlock()
}

// Counts returns the attempted and failed totals so far.
func (g *Gen) Counts() (attempted, failed int64, msgs []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempts, g.nfail, append([]string(nil), g.failures...)
}

// do sends one request on a pooled connection. member selects the
// connection's member cookie; cookie, when set, overrides it.
func (g *Gen) do(start time.Time, method, target string, member bool, cookie string) (*Response, Sample, error) {
	c := <-g.pool
	defer func() { g.pool <- c }()
	return g.doOn(c, start, method, target, member, cookie)
}

func (g *Gen) doOn(c *Conn, start time.Time, method, target string, member bool, cookie string) (*Response, Sample, error) {
	if member && cookie == "" {
		cookie = c.member
	}
	id := g.ids.Add(1)
	s := Sample{ID: id, Sent: time.Since(start)}
	resp, err := c.Do(method, target, cookie, id, "")
	s.End = time.Since(start)
	if err == nil {
		s.Bytes = len(resp.Body)
	}
	g.mu.Lock()
	g.attempts++
	if g.logging {
		g.log = append(g.log, s)
	}
	g.mu.Unlock()
	if err != nil {
		// The connection is in an unknown state: start a fresh one.
		if rerr := c.redial(); rerr != nil {
			err = fmt.Errorf("%v (redial: %v)", err, rerr)
		}
		return nil, s, err
	}
	return resp, s, nil
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil waits for t and returns how late it woke, or -1 if t had
// already passed. time.Sleep rounds up to the netpoller's millisecond
// wait, which would add ~1ms of generator lateness to every request;
// nanosleep on a thread whose timer slack is 1ns wakes within
// microseconds. The goroutine holds its thread only while it sleeps,
// so response reads are not handed between threads.
func sleepUntil(t time.Time) time.Duration {
	d := time.Until(t)
	if d <= 0 {
		return -1
	}
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint:errcheck // best effort: default slack is 50µs
	ts := syscall.NsecToTimespec(int64(time.Until(t)))
	for ts.Nano() > 0 && syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
	runtime.UnlockOSThread()
	return time.Since(t)
}

// OpenLoop sends reqs at their due times from workers goroutines and
// returns one sample per request, in schedule order.
func (g *Gen) OpenLoop(start time.Time, reqs []PageReq, workers int) []Sample {
	out := make([]Sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				late := sleepUntil(start.Add(r.Due))
				resp, s, err := g.do(start, http.MethodGet, r.Target, r.Member, "")
				s.Due, s.Lateness = r.Due, late
				switch {
				case err != nil:
					g.fail(err.Error())
				default:
					if msg := g.checker.Check(r, resp); msg != "" {
						g.fail(msg)
					} else {
						s.OK = true
					}
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// ClosedLoop keeps workers requests in flight for d, each sent as soon
// as the previous one on its worker completed, drawing from next.
func (g *Gen) ClosedLoop(d time.Duration, workers int, next func() PageReq) []Sample {
	var mu sync.Mutex
	var out []Sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				r := next()
				mu.Unlock()
				due := time.Since(start)
				resp, s, err := g.do(start, http.MethodGet, r.Target, r.Member, "")
				s.Due, s.Lateness = due, -1
				if err != nil {
					g.fail(err.Error())
				} else if msg := g.checker.Check(r, resp); msg != "" {
					g.fail(msg)
				} else {
					s.OK = true
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// Manager runs the content manager's write stream for d at rate
// operations per second on its own connection c: each cycle creates a
// volume, checks that it shows on managePage (bean invalidation) and
// on the anonymous volumesPage through the edge (edge purge), deletes
// it one interval later, and checks both pages again. Only the
// operations are returned as samples; the checks count as attempts and
// failures.
func (g *Gen) Manager(c *Conn, start time.Time, rate float64, d time.Duration, tag string) []Sample {
	var out []Sample
	interval := time.Duration(float64(time.Second) / rate)
	op := func(due time.Duration, target string) (Sample, bool) {
		late := sleepUntil(start.Add(due))
		resp, s, err := g.doOn(c, start, http.MethodGet, target, false, g.manager)
		s.Op, s.Due, s.Lateness = true, due, late
		switch {
		case err != nil:
			g.fail(err.Error())
		case resp.Status != http.StatusFound:
			g.fail(fmt.Sprintf("%s: status %d", target, resp.Status))
		default:
			s.OK = true
		}
		out = append(out, s)
		return s, s.OK
	}
	// check fetches a page and reports whether title is on it.
	check := func(r PageReq, cookie string) ([]byte, bool) {
		resp, _, err := g.doOn(c, start, http.MethodGet, r.Target, false, cookie)
		if err != nil {
			g.fail(err.Error())
			return nil, false
		}
		if msg := g.checker.Check(r, resp); msg != "" {
			g.fail(msg)
			return nil, false
		}
		return resp.Body, true
	}
	manage, volumes := pageReq(kManage, 0), pageReq(kVolumes, 0)
	for k := 0; ; k++ {
		due := time.Duration(2*k) * interval
		if due >= d {
			return out
		}
		title := fmt.Sprintf("Bench volume %s-%d", tag, k)
		q := url.Values{"title": {title}, "year": {strconv.Itoa(2030 + k%50)}}
		if _, ok := op(due, "/op/createVolume?"+q.Encode()); !ok {
			continue
		}
		body, ok := check(manage, g.manager)
		oid := manageOid(body, title)
		if ok && oid == 0 {
			g.fail("read-after-write: created " + title + " missing from managePage")
		}
		if body, ok := check(volumes, ""); ok && !containsTitle(body, title) {
			g.fail("read-after-write: created " + title + " missing from volumesPage at the edge")
		}
		if oid == 0 {
			continue
		}
		if _, ok := op(due+interval, "/op/deleteVolume?oid="+strconv.Itoa(oid)); !ok {
			continue
		}
		if body, ok := check(manage, g.manager); ok && containsTitle(body, title) {
			g.fail("read-after-write: deleted " + title + " still on managePage")
		}
		if body, ok := check(volumes, ""); ok && containsTitle(body, title) {
			g.fail("read-after-write: deleted " + title + " still on volumesPage at the edge")
		}
	}
}

// containsTitle reports whether a volume list links title.
func containsTitle(body []byte, title string) bool {
	return bytes.Contains(body, []byte(">"+title+"</a>"))
}

// startLog starts keeping every request's sample, checks included, so
// a traced phase can join client times with server spans.
func (g *Gen) startLog() {
	g.mu.Lock()
	g.logging, g.log = true, nil
	g.mu.Unlock()
}

// stopLog stops logging and returns the log.
func (g *Gen) stopLog() []Sample {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.logging = false
	return g.log
}
