package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/trace"
	"github.com/parcel-go/parcel/internal/webgen"
)

// muxChunk is the proxy's default parcelmux data-chunk size.
const muxChunk = 32 << 10

// replayCounts are the counters the replay gathers next to its spans.
type replayCounts struct {
	pages, objects, sims  int
	events, packets       uint64
	flushes               int
	bodyBytes             int64
	htmlObjs, cssObjs, js int
	simWall               time.Duration
}

// replayLayers feeds pages serially through each layer's public functions
// under spans and reports the per-layer metrics. Small page sets are
// replayed several times so every workload's replay covers about as many
// page visits as the sweep's. Every visit also runs once without spans, and
// the wall-time difference is the tracing overhead. prewarm first records
// the discovery memoisation (the sweep does it during set-up instead).
func replayLayers(t *tracer, rep *report, pages []webgen.Page, sc sched.Config, prewarm bool) error {
	origin, err := parcelnet.StartOrigin("127.0.0.1:0", replay.FromPages(pages...))
	if err != nil {
		return err
	}
	defer origin.Close()
	fetcher := parcelnet.NewOriginFetcherN(origin.Addr(), 1)
	defer fetcher.Client.CloseIdleConnections()

	if prewarm {
		for i, p := range pages {
			t.do("browser.prewarm", i, -1, func() {
				for _, o := range p.Objects {
					browser.Prewarm(o.URL, o.ContentType, o.Body)
				}
			})
		}
	}
	var n, untracedN replayCounts
	var traced, untraced time.Duration
	rounds := (sweepPages + len(pages) - 1) / len(pages)
	for r := 0; r < rounds; r++ {
		for i, p := range pages {
			// The two runs of a visit alternate which goes first, so
			// neither gains from caches the other warmed.
			for k := 0; k < 2; k++ {
				if (r+i+k)%2 == 0 {
					traced += replayPage(t, rep, &n, p, i, sc, fetcher)
				} else {
					untraced += replayPage(nil, rep, &untracedN, p, i, sc, fetcher)
				}
			}
		}
	}
	setReplayMetrics(t, rep, &n)
	rep.set("trace.overhead_pct", (traced.Seconds()/untraced.Seconds()-1)*100, "%",
		fmt.Sprintf("%d page visits, traced %.3fs vs untraced %.3fs", n.pages, traced.Seconds(), untraced.Seconds()))
	return nil
}

// replayPage replays one visit of p through every layer and returns its
// wall time.
func replayPage(t *tracer, rep *report, n *replayCounts, p webgen.Page, i int, sc sched.Config, f *parcelnet.OriginFetcher) time.Duration {
	start := time.Now()
	root := t.begin("page", i, -1)
	replaySims(t, rep, n, p, i, root, sc)
	replayDiscovery(t, n, p, i, root)
	replayWire(t, rep, n, p, i, root, sc, f)
	t.end(root)
	n.pages++
	return time.Since(start)
}

// replaySims runs one DIR and one PARCEL simulation of p on the serial
// reference engine, then the radio model over the PARCEL client trace.
func replaySims(t *tracer, rep *report, n *replayCounts, p webgen.Page, i, root int, sc sched.Config) {
	params := scenario.DefaultParams()
	var topo *scenario.Topology
	t.do("scenario.build", i, root, func() { topo = scenario.Build(p, params) })
	start := time.Now()
	t.do("dirbrowser.sim", i, root, func() { dirbrowser.Run(topo, dirbrowser.Options{FixedRandom: true}) })
	n.simWall += time.Since(start)
	n.events += topo.Sim.Fired()
	n.packets += uint64(topo.ClientTrace.Len())

	t.do("scenario.build", i, root, func() { topo = scenario.Build(p, params) })
	pc := core.DefaultProxyConfig()
	pc.Sched = sc
	start = time.Now()
	var tlt time.Duration
	t.do("core.sim", i, root, func() { tlt = core.Run(topo, pc, core.DefaultClientConfig()).TLT })
	n.simWall += time.Since(start)
	n.events += topo.Sim.Fired()
	n.packets += uint64(topo.ClientTrace.Len())
	n.sims += 2
	if tlt <= 0 {
		rep.problem("replay: PARCEL simulation of %s loaded nothing", p.Name)
	}

	var acts []radio.Activity
	topo.ClientTrace.Each(func(pk trace.Packet) {
		if pk.At <= tlt {
			acts = append(acts, radio.Activity{At: pk.At, Bytes: pk.Size})
		}
	})
	t.do("radio.simulate", i, root, func() { radio.Simulate(acts, radio.DefaultLTE(), tlt) })
}

// replayDiscovery runs the proxy crawler's discovery steps on p's objects:
// HTML parsing, CSS reference extraction, and script compile-and-run.
func replayDiscovery(t *tracer, n *replayCounts, p webgen.Page, i, root int) {
	var styles, scripts []string
	t.do("htmlparse.parse", i, root, func() {
		for _, o := range p.Objects {
			if !strings.Contains(o.ContentType, "html") {
				continue
			}
			doc, err := htmlparse.Parse(o.Body)
			if err != nil {
				continue
			}
			htmlparse.Resources(doc, o.URL)
			styles = append(styles, htmlparse.InlineStyles(doc)...)
			scripts = append(scripts, htmlparse.InlineScripts(doc)...)
			n.htmlObjs++
		}
	})
	t.do("cssparse.refs", i, root, func() {
		for _, o := range p.Objects {
			if strings.Contains(o.ContentType, "css") {
				cssparse.Refs(string(o.Body), o.URL)
				n.cssObjs++
			}
		}
		for _, s := range styles {
			cssparse.AssetURLs(s, p.MainURL)
		}
	})
	t.do("minijs.run", i, root, func() {
		in := newStubInterp()
		for _, o := range p.Objects {
			if strings.Contains(o.ContentType, "javascript") {
				scripts = append(scripts, string(o.Body))
			}
		}
		for _, src := range scripts {
			if prog, err := minijs.Compile(src); err == nil {
				_ = in.Run(prog) // page scripts may throw; the crawler tolerates it too
			}
			n.js++
		}
	})
}

// replayWire runs p's objects through the schedule, the parcelmux
// encoder/decoder, the origin fetcher and the shared object cache.
func replayWire(t *tracer, rep *report, n *replayCounts, p webgen.Page, i, root int, sc sched.Config, f *parcelnet.OriginFetcher) {
	t.do("sched.bundle", i, root, func() {
		b := sched.NewBundler(sc, func([]sched.Item, sched.FlushReason) {})
		for _, o := range p.Objects {
			b.Add(sched.Item{URL: o.URL, ContentType: o.ContentType, Status: o.Status, Body: o.Body})
		}
		b.OnLoad()
		b.Complete()
		n.flushes += b.Flushes
	})

	benches := make([]*parcelnet.WireBench, len(p.Objects))
	for j, o := range p.Objects {
		benches[j] = parcelnet.NewWireBench(len(o.Body), muxChunk)
		n.bodyBytes += int64(len(o.Body))
	}
	t.do("parcelnet.mux_encode", i, root, func() {
		for j, o := range p.Objects {
			for sent := 0; sent == 0 || sent < len(o.Body); {
				sent += benches[j].EncodeStep()
			}
		}
	})
	t.do("parcelnet.mux_decode", i, root, func() {
		for j, o := range p.Objects {
			for got := 0; got == 0 || got < len(o.Body); {
				k, err := benches[j].DecodeStep()
				if err != nil {
					rep.problem("replay: mux decode of %s: %v", o.URL, err)
					break
				}
				got += k
			}
		}
	})

	t.do("parcelnet.origin_fetch", i, root, func() {
		for _, o := range p.Objects {
			if _, _, _, _, err := f.FetchValidated(o.URL); err != nil {
				rep.problem("replay: origin fetch of %s: %v", o.URL, err)
			}
		}
	})

	cache := objcache.New(objcache.Config{Capacity: 1 << 30})
	lookup := func(want bool) {
		for _, o := range p.Objects {
			o := o
			_, hit, err := cache.GetOrFetch(o.URL, func() (objcache.Object, error) {
				return objcache.Object{URL: o.URL, ContentType: o.ContentType, Status: o.Status, Body: o.Body}, nil
			})
			if err != nil || hit != want {
				rep.problem("replay: cache lookup of %s: hit=%v want %v (err %v)", o.URL, hit, want, err)
			}
		}
	}
	t.do("objcache.miss", i, root, func() { lookup(false) })
	t.do("objcache.hit", i, root, func() { lookup(true) })
	n.objects += len(p.Objects)
}

// setReplayMetrics turns the replay's spans and counters into the per-layer
// metrics.
func setReplayMetrics(t *tracer, rep *report, n *replayCounts) {
	a := t.aggregate()
	perCall := func(name string, unit time.Duration) float64 {
		s := a[name]
		if s == nil || s.count == 0 {
			return 0
		}
		return float64(s.own) / float64(unit) / float64(s.count)
	}
	perN := func(name string, unit time.Duration, count int) float64 {
		s := a[name]
		if s == nil || count == 0 {
			return 0
		}
		return float64(s.own) / float64(unit) / float64(count)
	}
	pages := fmt.Sprintf("%d page visits", n.pages)
	objs := fmt.Sprintf("%d object lookups", n.objects)
	sims := fmt.Sprintf("%d serial sims", n.sims)
	count := func(name string) string {
		if s := a[name]; s != nil {
			return fmt.Sprintf("%d calls", s.count)
		}
		return "0 calls"
	}
	rep.set("scenario.build_ms", perCall("scenario.build", time.Millisecond), "ms", count("scenario.build"))
	rep.set("browser.prewarm_ms", perCall("browser.prewarm", time.Millisecond), "ms", count("browser.prewarm")+" (one per page)")
	rep.set("core.sim_ms", perCall("core.sim", time.Millisecond), "ms", count("core.sim"))
	rep.set("dirbrowser.sim_ms", perCall("dirbrowser.sim", time.Millisecond), "ms", count("dirbrowser.sim"))
	rep.set("eventsim.events_per_sim", float64(n.events)/float64(n.sims), "count", sims)
	rep.set("eventsim.ns_per_event", float64(n.simWall)/float64(n.events), "ns", fmt.Sprintf("%d events", n.events))
	rep.set("simnet.packets_per_sim", float64(n.packets)/float64(n.sims), "count", sims+", client trace packets")
	rep.set("radio.simulate_us", perCall("radio.simulate", time.Microsecond), "us", count("radio.simulate"))
	rep.set("htmlparse.parse_us_per_page", perN("htmlparse.parse", time.Microsecond, n.pages), "us", fmt.Sprintf("%s, %d HTML objects", pages, n.htmlObjs))
	rep.set("cssparse.refs_us_per_page", perN("cssparse.refs", time.Microsecond, n.pages), "us", fmt.Sprintf("%s, %d CSS objects", pages, n.cssObjs))
	rep.set("minijs.run_us_per_page", perN("minijs.run", time.Microsecond, n.pages), "us", fmt.Sprintf("%s, %d scripts", pages, n.js))
	rep.set("sched.bundle_us_per_page", perN("sched.bundle", time.Microsecond, n.pages), "us", pages)
	rep.set("sched.flushes_per_page", float64(n.flushes)/float64(n.pages), "count", pages)
	kb := float64(n.bodyBytes) / 1024
	bytesBase := fmt.Sprintf("%.0f KB of bodies", kb)
	if s := a["parcelnet.mux_encode"]; s != nil {
		rep.set("parcelnet.mux_encode_ns_per_kb", float64(s.own)/kb, "ns", bytesBase)
	}
	if s := a["parcelnet.mux_decode"]; s != nil {
		rep.set("parcelnet.mux_decode_ns_per_kb", float64(s.own)/kb, "ns", bytesBase)
	}
	rep.set("parcelnet.origin_fetch_us", perN("parcelnet.origin_fetch", time.Microsecond, n.objects), "us", objs)
	rep.set("objcache.miss_us", perN("objcache.miss", time.Microsecond, n.objects), "us", objs)
	rep.set("objcache.hit_us", perN("objcache.hit", time.Microsecond, n.objects), "us", objs)
}

// newStubInterp builds an interpreter with no-op versions of the builtins
// generated scripts call, so scripts run without a crawler behind them.
func newStubInterp() *minijs.Interp {
	in := minijs.New()
	noop := func([]minijs.Value) (minijs.Value, error) { return minijs.Null(), nil }
	for _, name := range []string{"fetch", "fetchAsync", "setTimeout", "onEvent", "log"} {
		in.BindNative(name, noop)
	}
	in.BindNative("rand", func([]minijs.Value) (minijs.Value, error) {
		return minijs.Number(webgen.FixedRandValue), nil
	})
	in.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write":  minijs.NativeValue(noop),
		"append": minijs.NativeValue(noop),
		"remove": minijs.NativeValue(noop),
		"show":   minijs.NativeValue(noop),
		"hide":   minijs.NativeValue(noop),
	}))
	return in
}
