package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/mhtml"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/webgen"
)

const (
	fleetPages    = 8
	fleetPageSeed = 1 // the page set is fixed; the workload seed orders it
	fleetQuiet    = 200 * time.Millisecond
	pageTimeout   = 30 * time.Second
)

var fleetSched = sched.ConfigONLD

// fleetCacheBytes is the shared object cache budget: it holds the whole
// page set (about 14 MB) many times over.
const fleetCacheBytes = 256 << 20

// fleetKind is what distinguishes the fleet workloads.
type fleetKind struct {
	name string
	lte  bool // shape every client connection with netem.LTE()
}

var (
	fleetWarm = fleetKind{name: "fleet-warm"}
	fleetLTE  = fleetKind{name: "fleet-lte", lte: true}
)

// countingStore is an origin store that counts the body bytes it serves.
type countingStore struct {
	httpsim.Store
	bytes atomic.Int64
}

func (s *countingStore) Get(url string) (httpsim.Object, bool) {
	o, ok := s.Store.Get(url)
	if ok {
		s.bytes.Add(int64(len(o.Body)))
	}
	return o, ok
}

// countingConn counts the bytes a client reads from the proxy.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// fleetEnv is one set-up: a proxy origin, a separate origin for the
// clients' direct path (so its bytes land in egress, not origin), the
// sharded proxy, and each page's reference set.
type fleetEnv struct {
	kind    fleetKind
	pages   []webgen.Page
	origin  *parcelnet.Origin
	direct  *parcelnet.Origin
	proxy   *parcelnet.Proxy
	fromOrg *countingStore // what the proxy fetched
	toUser  *countingStore // what clients fetched directly
	refs    [][]string     // per page: objects uncontended sessions held at their completion notice
	want    map[string]parcelnet.Object
}

func startFleet(kind fleetKind) (*fleetEnv, error) {
	pages := webgen.Generate(webgen.Spec{Seed: fleetPageSeed, NumPages: fleetPages})
	store := replay.Rewriting{Store: replay.FromPages(pages...)}
	e := &fleetEnv{kind: kind, pages: pages, fromOrg: &countingStore{Store: store}, toUser: &countingStore{Store: store}}
	var err error
	if e.origin, err = parcelnet.StartOrigin("127.0.0.1:0", e.fromOrg); err != nil {
		return nil, err
	}
	if e.direct, err = parcelnet.StartOrigin("127.0.0.1:0", e.toUser); err != nil {
		e.close()
		return nil, err
	}
	e.proxy, err = parcelnet.StartProxy("127.0.0.1:0", parcelnet.ProxyConfig{
		OriginAddr:  e.origin.Addr(),
		Sched:       fleetSched,
		QuietPeriod: fleetQuiet,
		FixedRandom: true,
		CacheBytes:  fleetCacheBytes,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	// Reference sets come from unshaped sessions on every fleet: shaping
	// slows the client's reads, not what the proxy pushes before its
	// completion notice.
	for i, p := range pages {
		ref, err := e.reference(p.MainURL)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("reference session for page %d: %w", i, err)
		}
		e.refs = append(e.refs, ref)
	}
	if err := e.fetchWanted(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// fetchWanted records what the origin serves a direct client for every
// reference object: the proxy must deliver exactly that (status and bytes).
// The replay origin serves plain HTTP only, so an https object is a 404 on
// both paths.
func (e *fleetEnv) fetchWanted() error {
	f := parcelnet.NewOriginFetcherN(e.direct.Addr(), 1)
	defer f.Client.CloseIdleConnections()
	e.want = map[string]parcelnet.Object{}
	for _, ref := range e.refs {
		for _, u := range ref {
			if _, ok := e.want[u]; ok {
				continue
			}
			body, ct, status, err := f.Fetch(u)
			if err != nil {
				return fmt.Errorf("direct fetch of %s: %w", u, err)
			}
			e.want[u] = parcelnet.Object{URL: u, ContentType: ct, Status: status, Body: body}
		}
	}
	return nil
}

// reference records what one uncontended session holds when the proxy's
// completion notice arrives.
func (e *fleetEnv) reference(url string) ([]string, error) {
	c, err := parcelnet.DialConfig(e.proxy.Addr(), parcelnet.ClientConfig{DirectOrigin: e.direct.Addr(), Mux: true})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.RequestPage(url, "perfbench", "1280x800"); err != nil {
		return nil, err
	}
	note, err := c.WaitComplete(pageTimeout)
	if err != nil {
		return nil, err
	}
	held := c.Objects()
	if note.ObjectsPushed > len(held) || note.ObjectsPushed == 0 || c.Degraded() {
		return nil, fmt.Errorf("pushed %d objects but %d held (degraded %v)", note.ObjectsPushed, len(held), c.Degraded())
	}
	ref := append([]string(nil), held[:note.ObjectsPushed]...)
	sort.Strings(ref)
	return ref, nil
}

// keepCommonRefs narrows e's reference sets to the objects o's set-up also
// received before its completion notice. A post-onload timer that fires
// close to the quiet-period deadline lands on either side of the notice from
// one session to the next; keeping only what every set-up received stops
// such an object from making one run's page loads wait for its timer.
func (e *fleetEnv) keepCommonRefs(o *fleetEnv) {
	for i := range e.refs {
		in := make(map[string]bool, len(o.refs[i]))
		for _, u := range o.refs[i] {
			in[u] = true
		}
		common := e.refs[i][:0]
		for _, u := range e.refs[i] {
			if in[u] {
				common = append(common, u)
			}
		}
		e.refs[i] = common
	}
}

func (e *fleetEnv) refSizes() []int {
	n := make([]int, len(e.refs))
	for i, r := range e.refs {
		n[i] = len(r)
	}
	return n
}

func (e *fleetEnv) close() {
	if e.proxy != nil {
		e.proxy.Close()
	}
	if e.direct != nil {
		e.direct.Close()
	}
	if e.origin != nil {
		e.origin.Close()
	}
}

// sample is one tenant page load.
type sample struct {
	ok        bool
	why       string        // first failure, when !ok
	load      time.Duration // request until the whole reference set is held
	ttfc      time.Duration
	egress    int64 // bytes read from the proxy connection
	held      int
	fallbacks int
	done      usage // process clock and CPU when the load finished
}

// load runs one page load for a tenant and checks every held object
// against the origin's bytes.
func (e *fleetEnv) load(page, seed int) sample {
	var egress atomic.Int64
	dial := func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if e.kind.lte {
			conn = netem.Wrap(conn, netem.LTE())
		}
		return countingConn{Conn: conn, n: &egress}, nil
	}
	c, err := parcelnet.DialConfig(e.proxy.Addr(), parcelnet.ClientConfig{
		Dial: dial, DirectOrigin: e.direct.Addr(), Mux: true, Seed: int64(seed),
	})
	if err != nil {
		return sample{why: "dial: " + err.Error()}
	}
	defer c.Close()
	start := time.Now()
	deadline := start.Add(pageTimeout)
	if err := c.RequestPage(e.pages[page].MainURL, "perfbench", "1280x800"); err != nil {
		return sample{why: "page request: " + err.Error()}
	}
	s := sample{ok: true}
	parts := make([]mhtml.Part, 0, len(e.refs[page]))
	for _, u := range e.refs[page] {
		p, err := c.Object(u, time.Until(deadline))
		if err != nil {
			s.ok, s.why = false, "object: "+err.Error()
			break
		}
		parts = append(parts, p)
	}
	s.load = time.Since(start)
	if s.ok {
		for i, u := range e.refs[page] {
			if w := e.want[u]; w.Status != parts[i].Status || !bytes.Equal(w.Body, parts[i].Body) {
				s.ok, s.why = false, "wrong bytes for "+u
			}
		}
	}
	if s.ok && c.Degraded() {
		s.ok, s.why = false, "degraded to direct origin"
	}
	s.ttfc = c.SessionLoad(0).FirstCritical
	s.held = len(c.Objects())
	s.fallbacks = c.Fallbacks
	s.egress = egress.Load()
	s.done = readUsage()
	return s
}

// fleetCounters snapshots the proxy and origin counters a timed run
// reports as per-page deltas.
type fleetCounters struct {
	originBytes, originReqs, directBytes int64
	hits, misses, evictions              int64
	deferred, shed                       int64
}

func (e *fleetEnv) counters() fleetCounters {
	cs := e.proxy.CacheStats()
	return fleetCounters{
		originBytes: e.fromOrg.bytes.Load(),
		originReqs:  e.origin.Requests(),
		directBytes: e.toUser.bytes.Load(),
		hits:        cs.Hits, misses: cs.Misses, evictions: cs.Evictions,
		deferred: e.proxy.DeferredTotal(), shed: e.proxy.ShedTotal(),
	}
}

func (a fleetCounters) minus(b fleetCounters) fleetCounters {
	return fleetCounters{
		originBytes: a.originBytes - b.originBytes, originReqs: a.originReqs - b.originReqs,
		directBytes: a.directBytes - b.directBytes,
		hits:        a.hits - b.hits, misses: a.misses - b.misses, evictions: a.evictions - b.evictions,
		deferred: a.deferred - b.deferred, shed: a.shed - b.shed,
	}
}

// fleetRun is the outcome of one timed fleet run.
type fleetRun struct {
	samples   []sample
	wall, cpu time.Duration
	delta     fleetCounters
}

// timed runs the closed loop: each tenant loads whole passes over the page
// set, in a seed-fixed order, until d has elapsed. Every pass visits each
// page once, so every run covers the same page mix.
func (e *fleetEnv) timed(seed int64, d time.Duration) fleetRun {
	before := e.counters()
	u := readUsage()
	per := make([][]sample, tenants)
	var wg sync.WaitGroup
	for k := 0; k < tenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			for pass := 0; pass == 0 || time.Since(u.wall) < d; pass++ {
				for _, page := range rng.Perm(len(e.pages)) {
					per[k] = append(per[k], e.load(page, len(per[k])+1))
				}
			}
		}(k)
	}
	wg.Wait()
	r := fleetRun{delta: e.counters().minus(before)}
	r.wall, r.cpu = u.since()
	for _, s := range per {
		r.samples = append(r.samples, s...)
	}
	return r
}

// leakTB adapts leakcheck's test interface to the benchmark.
type leakTB struct{ errs []string }

func (l *leakTB) Helper() {}
func (l *leakTB) Errorf(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

func runFleet(o options, kind fleetKind) (*report, error) {
	rep := newReport()
	var tb leakTB
	leaked := leakcheck.Check(&tb)

	var env *fleetEnv
	var setup []float64
	for k := 0; k < setups; k++ {
		u := readUsage()
		e, err := startFleet(kind)
		if err != nil {
			if env != nil {
				env.close()
			}
			return nil, err
		}
		wall, _ := u.since()
		setup = append(setup, wall.Seconds())
		if env == nil {
			env = e
		} else {
			env.keepCommonRefs(e)
			e.close()
		}
		runtime.GC()
	}
	fmt.Printf("reference sets: %v objects per page\n", env.refSizes())

	run := env.timed(o.seed, o.seconds)
	env.close()
	if o.trace {
		t := newTracer()
		setFleetCounters(rep, kind, run)
		if err := replayLayers(t, rep, env.pages, fleetSched, true); err != nil {
			return nil, err
		}
		setBatchGain(t, rep, experiments.Config{Seed: fleetPageSeed, Pages: fleetPages, Runs: 1, Jitter: sweepJitter, Parallelism: sweepWorkers})
		if err := t.write(o.spans, fmt.Sprintf("%s-seed%d.jsonl", kind.name, o.seed), o.stamp); err != nil {
			return nil, err
		}
	} else {
		pps, cpu := run.rates()
		base := fmt.Sprintf("%d pages in %.2fs", len(run.samples), run.wall.Seconds())
		if len(run.samples) >= 20*fleetChunks {
			base = fmt.Sprintf("median of %d slices of %s", fleetChunks, base)
		}
		setEndToEnd(rep, setup, pps, cpu, base)
		setFleetUserMetrics(rep, run)
	}
	rep.attempted = len(run.samples)
	for _, s := range run.samples {
		if !s.ok {
			if rep.failed < 5 {
				fmt.Printf("failed page load: %s\n", s.why)
			}
			rep.failed++
		}
	}
	leaked()
	for _, err := range tb.errs {
		rep.problem("%s", err)
	}
	return rep, nil
}

// fleetChunks is how many consecutive slices of a run's page loads the
// throughput and CPU medians are taken over.
const fleetChunks = 10

// rates returns pages per second and CPU ms per page. With enough page
// loads they are medians over fleetChunks consecutive slices of the run, in
// completion order, which keeps a burst of outside load on the machine from
// moving the run's figure; otherwise they are whole-run totals.
func (r fleetRun) rates() (pagesPerS, cpuMsPerPage float64) {
	n := len(r.samples)
	if n < 20*fleetChunks {
		return float64(n) / r.wall.Seconds(), ms(r.cpu) / float64(n)
	}
	done := make([]usage, n)
	for i, s := range r.samples {
		done[i] = s.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i].wall.Before(done[j].wall) })
	var rate, cpu []float64
	for c := 0; c < fleetChunks; c++ {
		lo, hi := c*n/fleetChunks, (c+1)*n/fleetChunks-1
		pages := float64(hi - lo)
		rate = append(rate, pages/done[hi].wall.Sub(done[lo].wall).Seconds())
		cpu = append(cpu, ms(done[hi].cpu-done[lo].cpu)/pages)
	}
	return stats.Median(rate), stats.Median(cpu)
}

// setFleetUserMetrics reports what a user of the fleet pays per page.
func setFleetUserMetrics(rep *report, r fleetRun) {
	var load, ttfc []float64
	var egress int64
	for _, s := range r.samples {
		egress += s.egress
		if !s.ok {
			continue
		}
		load = append(load, ms(s.load))
		if s.ttfc > 0 {
			ttfc = append(ttfc, ms(s.ttfc))
		}
	}
	if len(load) == 0 || len(ttfc) == 0 {
		rep.problem("no page load delivered its reference set")
		return
	}
	p50, n50 := percentile(load, 50)
	p90, n90 := percentile(load, 90)
	t50, nt := percentile(ttfc, 50)
	rep.set("page_load_p50_ms", p50, "ms", n50)
	rep.set("page_load_p90_ms", p90, "ms", n90)
	rep.set("ttfc_p50_ms", t50, "ms", nt)
	pages := len(r.samples)
	rep.set("egress_kb_per_page", float64(egress+r.delta.directBytes)/1000/float64(pages), "KB",
		fmt.Sprintf("%d pages, proxy connection plus direct-origin bytes", pages))
}

// setFleetCounters reports the per-layer counts the timed run gives for
// free, as per-page ratios. A run without page loads (the sweep runs no
// fleet) reports them as zero.
func setFleetCounters(rep *report, kind fleetKind, r fleetRun) {
	base := fmt.Sprintf("%d pages", len(r.samples))
	per := func(x int64) float64 {
		if len(r.samples) == 0 {
			return 0
		}
		return float64(x) / float64(len(r.samples))
	}
	var held, fallbacks, egress int64
	var busy time.Duration
	for _, s := range r.samples {
		held += int64(s.held)
		fallbacks += int64(s.fallbacks)
		egress += s.egress
		busy += s.load
	}
	d := r.delta
	rep.set("origin.requests_per_page", per(d.originReqs), "count", base)
	rep.set("origin.kb_per_page", per(d.originBytes)/1000, "KB", base)
	hitRatio := 0.0
	if d.hits+d.misses > 0 {
		hitRatio = float64(d.hits) / float64(d.hits+d.misses)
	}
	rep.set("objcache.hit_ratio", hitRatio, "ratio", fmt.Sprintf("%d lookups", d.hits+d.misses))
	rep.set("objcache.evictions_per_page", per(d.evictions), "count", base)
	rep.set("parcelnet.pushed_per_page", per(held-fallbacks), "count", base)
	rep.set("parcelnet.fallbacks_per_page", per(fallbacks), "count", base)
	rep.set("parcelnet.deferred_per_page", per(d.deferred), "count", base)
	rep.set("parcelnet.shed_per_page", per(d.shed), "count", base)
	util, note := 0.0, "no netem link on "+kind.name
	if kind.lte {
		util = float64(egress) / (float64(netem.LTE().Bps) * busy.Seconds())
		note = fmt.Sprintf("%d KB over %.1fs of page loads", egress/1000, busy.Seconds())
	}
	rep.set("netem.link_utilization", util, "ratio", note)
}
