package parcelnet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// storeFetch serves a crawl from an in-memory store, 404 for anything else.
func storeFetch(store httpsim.MapStore) fetchFunc {
	return func(url string) ([]byte, string, int, error) {
		o, ok := store[url]
		if !ok {
			return nil, "text/plain", 404, nil
		}
		return o.Body, o.ContentType, 200, nil
	}
}

// serialDriver runs a crawl deterministically on the test goroutine:
// spawned steps run one at a time in FIFO order, and page timers fire in
// virtual time (earliest first, then in arming order) whenever no step is
// runnable. Two crawls of one page under it execute the same scripts in the
// same order, so their interpreter states are comparable.
type serialDriver struct {
	queue  []func()
	timers []*vtimer
	now    time.Duration
}

type vtimer struct {
	at   time.Duration
	f    func()
	done bool
}

func newSerialCrawler(store httpsim.MapStore, fixedRandom bool) (*crawler, *serialDriver) {
	d := &serialDriver{}
	c := newCrawler(storeFetch(store), fixedRandom, func(Object) {}, nil, nil)
	c.spawn = func(f func()) { d.queue = append(d.queue, f) }
	c.after = func(dur time.Duration, f func()) func() bool {
		t := &vtimer{at: d.now + dur, f: f}
		d.timers = append(d.timers, t)
		return func() bool {
			armed := !t.done
			t.done = true
			return armed
		}
	}
	return c, d
}

func (d *serialDriver) run() {
	for {
		for len(d.queue) > 0 {
			f := d.queue[0]
			d.queue = d.queue[1:]
			f()
		}
		var next *vtimer
		for _, t := range d.timers {
			if !t.done && (next == nil || t.at < next.at) {
				next = t
			}
		}
		if next == nil {
			return
		}
		next.done = true
		d.now = next.at
		next.f()
	}
}

// crawlSerial crawls mainURL from store to completion and returns the
// crawler for inspection.
func crawlSerial(store httpsim.MapStore, mainURL string, fixedRandom bool) *crawler {
	c, d := newSerialCrawler(store, fixedRandom)
	c.start(mainURL)
	d.run()
	return c
}

func (c *crawler) requestedURLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.requested))
	for u := range c.requested {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// sameInterpState reports the first difference between two crawlers'
// interpreter globals and op counts ("" when they match).
func sameInterpState(a, b *crawler) string {
	if a.js.Ops() != b.js.Ops() {
		return fmt.Sprintf("ops %d vs %d", a.js.Ops(), b.js.Ops())
	}
	an, bn := a.js.GlobalNames(), b.js.GlobalNames()
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		return fmt.Sprintf("globals %v vs %v", an, bn)
	}
	for _, name := range an {
		av, _ := a.js.Global(name)
		bv, _ := b.js.Global(name)
		if av.IsScalar() && !av.Equals(bv) || !av.SameKind(bv) {
			return fmt.Sprintf("global %s: %s vs %s", name, av.Str(), bv.Str())
		}
	}
	return ""
}

func webgenPages() []webgen.Page {
	pages := webgen.Generate(webgen.Spec{Seed: 1})
	return append(pages[:len(pages):len(pages)], webgen.InteractivePage(pages))
}

// TestCrawlWarmMatchesCold: a crawl that replays recorded script outcomes
// and cached parses discovers exactly what a cold crawl does and leaves the
// interpreter in the same state, on every webgen page, with and without the
// fixed-random rewrite.
func TestCrawlWarmMatchesCold(t *testing.T) {
	for _, fixed := range []bool{true, false} {
		for _, p := range webgenPages() {
			store := p.Store()
			discovery.Reset()
			cold := crawlSerial(store, p.MainURL, fixed)
			warm := crawlSerial(store, p.MainURL, fixed)
			cu, wu := cold.requestedURLs(), warm.requestedURLs()
			if strings.Join(cu, "\n") != strings.Join(wu, "\n") {
				t.Fatalf("%s fixed=%v: warm crawl found %d objects, cold %d", p.Name, fixed, len(wu), len(cu))
			}
			if len(cu) != len(p.Objects) {
				t.Fatalf("%s fixed=%v: crawled %d of %d objects", p.Name, fixed, len(cu), len(p.Objects))
			}
			if diff := sameInterpState(cold, warm); diff != "" {
				t.Fatalf("%s fixed=%v: %s", p.Name, fixed, diff)
			}
		}
	}
}

// countingLog rebinds the crawler's log builtin to count calls: a script
// that logs does so only when it really executes, never on replay.
func countingLog(c *crawler) *int {
	n := new(int)
	c.js.BindNative("log", func([]minijs.Value) (minijs.Value, error) {
		*n++
		return minijs.Null(), nil
	})
	return n
}

const fixtureURL = "http://fixture.test/index.html"

// fixtureStore is a one-page site whose only script is js, plus the images
// fixture scripts fetch.
func fixtureStore(js string) httpsim.MapStore {
	store := httpsim.MapStore{
		fixtureURL: {URL: fixtureURL, ContentType: "text/html",
			Body: []byte("<html><body><script>" + js + "</script></body></html>")},
	}
	for _, name := range []string{"a.png", "n.png", "t.png", "s.png", "r4.png"} {
		u := "http://fixture.test/" + name
		store[u] = httpsim.Object{URL: u, ContentType: "image/png", Body: []byte(name)}
	}
	return store
}

// crawlLogged crawls the fixture twice (cold, then warm) and returns both
// crawlers and how often each ran a log() call.
func crawlLogged(t *testing.T, store httpsim.MapStore, fixed bool, prep func(*crawler)) (cold, warm *crawler, coldLogs, warmLogs int) {
	t.Helper()
	discovery.Reset()
	crawl := func() (*crawler, int) {
		c, d := newSerialCrawler(store, fixed)
		logs := countingLog(c)
		if prep != nil {
			prep(c)
		}
		c.start(fixtureURL)
		d.run()
		return c, *logs
	}
	cold, coldLogs = crawl()
	warm, warmLogs = crawl()
	if cu, wu := cold.requestedURLs(), warm.requestedURLs(); strings.Join(cu, " ") != strings.Join(wu, " ") {
		t.Fatalf("warm crawl requested %v, cold %v", wu, cu)
	}
	return cold, warm, coldLogs, warmLogs
}

// TestCrawlReplaysCacheableScript: a plain fetching script and a rand()
// under the fixed-random rewrite are replayed, not re-interpreted.
func TestCrawlReplaysCacheableScript(t *testing.T) {
	for name, js := range map[string]string{
		"fetch":       `log("x"); var k = 1; fetch("a.png"); document.append("s");`,
		"fixedrandom": `log("x"); fetch("r" + rand(10) + ".png");`,
	} {
		cold, warm, coldLogs, warmLogs := crawlLogged(t, fixtureStore(js), true, nil)
		if coldLogs != 1 || warmLogs != 0 {
			t.Errorf("%s: log ran %d times cold, %d warm; want 1 and 0 (replayed)", name, coldLogs, warmLogs)
		}
		if diff := sameInterpState(cold, warm); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// TestCrawlNonCacheableReexecutes: every script the outcome cache must not
// replay runs again on the warm crawl, with the same discoveries.
func TestCrawlNonCacheableReexecutes(t *testing.T) {
	cases := []struct {
		name  string
		js    string
		fixed bool
		prep  func(*crawler)
	}{
		{name: "setTimeout", js: `log("x"); setTimeout(10, function() { fetch("t.png"); });`, fixed: true},
		{name: "onEvent", js: `log("x"); onEvent("click", "b", function() { fetch("t.png"); });`, fixed: true},
		{name: "unfixed rand", js: `log("x"); var r = rand(10); fetch("a.png");`, fixed: false},
		{name: "runtime error", js: `log("x"); fetch("a.png"); fetch();`, fixed: true},
		{name: "closure global", js: `log("x"); var f = function() { return 1; };`, fixed: true},
		{name: "inline script write", js: `log("x"); document.write("<scr" + "ipt>fetch('n.png');</scr" + "ipt>");`, fixed: true},
		{
			// Warm crawl's interpreter has too little op budget left for the
			// recorded delta: it must re-execute so the budget error surfaces.
			name: "op budget", js: `log("x"); fetch("a.png"); var i = 0; while (i < 50) { i = i + 1; }`, fixed: true,
			prep: func(c *crawler) { c.js.TryChargeOps(minijs.DefaultMaxOps - 20) },
		},
	}
	for _, tc := range cases {
		_, _, coldLogs, warmLogs := crawlLogged(t, fixtureStore(tc.js), tc.fixed, tc.prep)
		if coldLogs != 1 || warmLogs != 1 {
			t.Errorf("%s: log ran %d times cold, %d warm; want 1 and 1 (re-executed)", tc.name, coldLogs, warmLogs)
		}
	}
}

// TestCrawlReplayValidatesReads: a recorded outcome replays only into an
// interpreter whose globals match what the recording read; any other
// pre-state re-executes the script and takes the branch it selects.
func TestCrawlReplayValidatesReads(t *testing.T) {
	store := fixtureStore(`log("x"); if (mode == 1) { fetch("a.png"); } else { fetch("n.png"); }`)
	discovery.Reset()
	crawl := func(mode float64) (urls []string, logs int) {
		c, d := newSerialCrawler(store, true)
		n := countingLog(c)
		c.js.Bind("mode", minijs.Number(mode))
		c.start(fixtureURL)
		d.run()
		return c.requestedURLs(), *n
	}
	for i, tc := range []struct {
		mode float64
		want string
		logs int
	}{
		{1, "a.png", 1}, // records
		{2, "n.png", 1}, // read set differs: re-executes
		{1, "a.png", 0}, // matches the recording: replays
	} {
		urls, logs := crawl(tc.mode)
		want := []string{fixtureURL, "http://fixture.test/" + tc.want}
		sort.Strings(want)
		if strings.Join(urls, " ") != strings.Join(want, " ") || logs != tc.logs {
			t.Fatalf("crawl %d (mode %v): requested %v with %d log calls, want %s and %d", i, tc.mode, urls, logs, tc.want, tc.logs)
		}
	}
}

// TestCrawlOpBudgetErrorSurfaces: a warm crawl whose interpreter cannot
// afford a recorded outcome reports the same budget error execution would.
func TestCrawlOpBudgetErrorSurfaces(t *testing.T) {
	store := fixtureStore(`var i = 0; while (i < 50) { i = i + 1; }`)
	discovery.Reset()
	crawlSerial(store, fixtureURL, true)
	c, d := newSerialCrawler(store, true)
	c.js.TryChargeOps(minijs.DefaultMaxOps - 20)
	c.start(fixtureURL)
	d.run()
	if len(c.Errors) != 1 || !strings.Contains(c.Errors[0].Error(), "op budget") {
		t.Fatalf("errors %v, want one op-budget error", c.Errors)
	}
}

// TestCrawlNestedWriteNotDoubled: an inline script run from document.write
// while its writer is being recorded takes effect once per crawl — the
// writer is not replayed on top of a nested run.
func TestCrawlNestedWriteNotDoubled(t *testing.T) {
	js := `var nested = 0; document.write("<scr" + "ipt>nested = nested + 1; fetch('n.png');</scr" + "ipt>");`
	cold, warm, _, _ := crawlLogged(t, fixtureStore(js), true, nil)
	for _, c := range []*crawler{cold, warm} {
		if v, _ := c.js.Global("nested"); v.Num() != 1 {
			t.Fatalf("nested ran %v times, want 1", v.Num())
		}
		if !c.requested["http://fixture.test/n.png"] {
			t.Fatal("nested script's fetch was not discovered")
		}
	}
	if diff := sameInterpState(cold, warm); diff != "" {
		t.Fatal(diff)
	}
}

// TestCrawlConcurrentSessionsShareCache: crawlers running concurrently on
// goroutines (timers firing at once) all record into and replay from the one
// process-wide cache, and each still discovers its page's full object set.
func TestCrawlConcurrentSessionsShareCache(t *testing.T) {
	pages := webgenPages()[:6]
	discovery.Reset()
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(pages))
	for round := 0; round < 4; round++ {
		for _, p := range pages {
			wg.Add(1)
			go func(p webgen.Page) {
				defer wg.Done()
				done := make(chan struct{})
				c := newCrawler(storeFetch(p.SharedStore()), true, func(Object) {}, nil, func() { close(done) })
				c.after = func(_ time.Duration, f func()) func() bool {
					go f()
					return func() bool { return false }
				}
				c.start(p.MainURL)
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					errs <- fmt.Errorf("%s: crawl never went idle", p.Name)
					return
				}
				if got := len(c.requestedURLs()); got != len(p.Objects) {
					errs <- fmt.Errorf("%s: crawled %d of %d objects", p.Name, got, len(p.Objects))
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionCloseStopsCrawl: a client that hangs up before its page's timer
// ads fire ends the crawl with the session — the timers are cancelled and
// neither the origin nor the shared cache sees another lookup.
func TestSessionCloseStopsCrawl(t *testing.T) {
	const main = "http://www.late.test/index.html"
	archive := replay.NewArchive()
	archive.Record(httpsim.Object{URL: main, ContentType: "text/html", Body: []byte(`<html><body>
<img src="/hero.jpg">
<script>
setTimeout(300, function() { fetch("http://ads.test/late0.png"); });
setTimeout(400, function() { fetch("http://ads.test/late1.png"); });
</script></body></html>`)})
	for _, u := range []string{"http://www.late.test/hero.jpg", "http://ads.test/late0.png", "http://ads.test/late1.png"} {
		archive.Record(httpsim.Object{URL: u, ContentType: "image/png", Body: []byte(strings.Repeat("x", 500))})
	}
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 5 * time.Second,
		FixedRandom: true,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFrameWriter(conn)
	if err := fw.WriteJSON(TPageRequest, PageRequest{URL: main}); err != nil {
		t.Fatal(err)
	}
	// The main document and the hero image are fetched at once; the ads wait
	// for their timers.
	waitFor(t, 2*time.Second, func() bool { return origin.Requests() == 2 })
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return proxy.Sessions() == 0 })
	lookups := func() int64 { s := proxy.CacheStats(); return s.Hits + s.Misses }
	reqs, looks := origin.Requests(), lookups()
	time.Sleep(600 * time.Millisecond) // past both timers
	if got := origin.Requests(); got != reqs {
		t.Errorf("origin requests grew from %d to %d after the session closed", reqs, got)
	}
	if got := lookups(); got != looks {
		t.Errorf("cache lookups grew from %d to %d after the session closed", looks, got)
	}
}

// BenchmarkCrawlPage measures proxy-side discovery of one webgen page per op
// — HTML/CSS parsing, script execution and the crawl bookkeeping, with
// fetches served from memory and timers fired in virtual time. cold empties
// the parse and exec-outcome caches before every crawl (compiled programs
// stay cached); warm crawls against caches an earlier crawl filled, as every
// proxy session after a page's first does.
func BenchmarkCrawlPage(b *testing.B) {
	pages := webgen.Generate(webgen.Spec{Seed: 1, NumPages: 8})
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			discovery.Reset()
			for _, p := range pages {
				crawlSerial(p.SharedStore(), p.MainURL, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					discovery.Reset()
				}
				p := pages[i%len(pages)]
				crawlSerial(p.SharedStore(), p.MainURL, true)
			}
		})
	}
}
