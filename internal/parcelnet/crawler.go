package parcelnet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Object is one crawled object.
type Object struct {
	URL         string
	ContentType string
	Status      int
	Body        []byte
}

// fetchFunc retrieves one logical URL. Sessions inject it so the crawler is
// agnostic to where bytes come from: a plain origin fetcher, or the shared
// cross-session object cache with single-flight de-duplication in front.
type fetchFunc func(url string) (body []byte, contentType string, status int, err error)

// scriptCtx is the context script builtins resolve and classify fetches in.
type scriptCtx struct {
	baseURL  string
	blocking bool
	depth    int
}

// crawler performs the proxy-side object identification of §4.2 over real
// HTTP: it parses HTML and CSS and executes page JavaScript to discover
// every object, fetching concurrently on the proxy's fast path. Parsing and
// script execution go through internal/discovery, the caches the simulated
// browser uses too, so a page's scripts are interpreted once per process and
// replayed by every later session whose interpreter state validates.
type crawler struct {
	fetch       fetchFunc
	fixedRandom bool
	maxDepth    int
	onObject    func(Object) // called once per fetched object
	onLoad      func()       // all onload-blocking work done
	onIdle      func()       // all work (including timers) done

	// spawn runs one fetch-and-process step concurrently, and after arms a
	// page timer and returns its cancel. Sessions use goroutines and
	// wall-clock timers; tests substitute a FIFO and a virtual clock.
	spawn func(func())
	after func(time.Duration, func()) (cancel func() bool)
	// inflight counts spawned steps until they return. It is added to only
	// under mu while the crawl is live, so once stop has returned a Wait on
	// it covers every step the crawl will ever run. Sessions point it at the
	// proxy-wide group that Proxy.Close waits on.
	inflight *sync.WaitGroup

	mu              sync.Mutex
	requested       map[string]bool
	pendingBlocking int
	pendingTotal    int
	onloadFired     bool
	idleFired       bool
	stopped         bool
	timers          []func() bool // cancels of armed page timers

	jsMu sync.Mutex
	js   *minijs.Interp
	rng  *rand.Rand
	// jsCtx is the active script context and rec the exec-outcome recorder
	// of the script being recorded (nil otherwise); both guarded by jsMu.
	jsCtx scriptCtx
	rec   *discovery.Recorder

	// Errors collects tolerated page errors.
	errMu  sync.Mutex
	Errors []error
}

func newCrawler(fetch fetchFunc, fixedRandom bool, onObject func(Object), onLoad, onIdle func()) *crawler {
	c := &crawler{
		fetch:       fetch,
		fixedRandom: fixedRandom,
		maxDepth:    8,
		onObject:    onObject,
		onLoad:      onLoad,
		onIdle:      onIdle,
		spawn:       func(f func()) { go f() },
		after: func(d time.Duration, f func()) func() bool {
			return time.AfterFunc(d, f).Stop
		},
		inflight:  new(sync.WaitGroup),
		requested: make(map[string]bool),
		js:        minijs.New(),
		rng:       rand.New(rand.NewSource(int64(webgen.FixedRandValue))),
	}
	c.bindBuiltins()
	return c
}

// start crawls from the main URL.
func (c *crawler) start(url string) { c.request(url, true, 0) }

// stop ends the crawl with its session: no new request is accepted, armed
// page timers are cancelled, and fetches already in flight are dropped when
// they return. Without it a crawl outlives its client by up to the page's
// longest timer, keeping the interpreter, parsed trees and session alive and
// still fetching.
func (c *crawler) stop() {
	c.mu.Lock()
	c.stopped = true
	timers := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, cancel := range timers {
		cancel()
	}
}

func (c *crawler) live() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.stopped
}

func (c *crawler) addError(err error) {
	c.errMu.Lock()
	c.Errors = append(c.Errors, err)
	c.errMu.Unlock()
}

// request fetches url once; blocking objects gate the onload callback.
func (c *crawler) request(url string, blocking bool, depth int) {
	c.mu.Lock()
	if c.stopped || c.requested[url] || depth > c.maxDepth {
		c.mu.Unlock()
		return
	}
	c.requested[url] = true
	c.pendingTotal++
	if blocking {
		c.pendingBlocking++
	}
	c.inflight.Add(1)
	c.mu.Unlock()

	c.spawn(func() {
		defer c.inflight.Done()
		body, ct, status, err := c.fetch(url)
		if !c.live() {
			return
		}
		obj := Object{URL: url, ContentType: ct, Status: status, Body: body}
		if err != nil {
			c.addError(err)
			obj.Status = 502
		}
		c.onObject(obj)
		if obj.Status < 400 {
			c.process(obj, blocking, depth)
		}
		c.finish(blocking)
	})
}

func (c *crawler) finish(blocking bool) {
	c.mu.Lock()
	c.pendingTotal--
	var fireLoad, fireIdle bool
	if blocking {
		c.pendingBlocking--
		if c.pendingBlocking == 0 && !c.onloadFired {
			c.onloadFired = true
			fireLoad = true
		}
	}
	if c.pendingTotal == 0 && c.onloadFired && !c.idleFired {
		c.idleFired = true
		fireIdle = true
	}
	c.mu.Unlock()
	if fireLoad && c.onLoad != nil {
		c.onLoad()
	}
	if fireIdle && c.onIdle != nil {
		c.onIdle()
	}
}

// process discovers what an object references.
func (c *crawler) process(obj Object, blocking bool, depth int) {
	switch {
	case strings.Contains(obj.ContentType, "html"):
		root, nodes, ok := discovery.HTML(obj.Body)
		if !ok {
			c.addError(fmt.Errorf("parse %s: malformed HTML", obj.URL))
			return
		}
		for _, res := range htmlparse.Resources(root, obj.URL) {
			c.request(res.URL, blocking && !res.Async, depth+1)
		}
		for _, n := range nodes {
			switch {
			case n.Tag == "style":
				for _, u := range discovery.AssetURLs(n.Text, obj.URL) {
					c.request(u, blocking, depth+1)
				}
			case n.Tag == "script" && n.Attr("src") == "" && strings.TrimSpace(n.Text) != "":
				prog, err := minijs.Compile(n.Text)
				c.execScript(prog, err, obj.URL, blocking, depth)
			}
		}
	case strings.Contains(obj.ContentType, "css"):
		for _, ref := range discovery.CSSRefs(obj.Body, obj.URL) {
			c.request(ref.URL, blocking, depth+1)
		}
	case strings.Contains(obj.ContentType, "javascript"):
		prog, err := minijs.CompileBytes(obj.Body)
		c.execScript(prog, err, obj.URL, blocking, depth)
	}
}

// execScript runs one compiled page script under the crawler's interpreter;
// its fetch/write/timer builtins feed discovery.
func (c *crawler) execScript(prog *minijs.Program, err error, baseURL string, blocking bool, depth int) {
	if err != nil {
		c.addError(fmt.Errorf("js parse %s: %w", baseURL, err))
		return
	}
	c.jsMu.Lock()
	saved := c.jsCtx
	c.jsCtx = scriptCtx{baseURL: baseURL, blocking: blocking, depth: depth}
	hit, err := discovery.Exec(c.js, prog, c.fixedRandom, func(rec *discovery.Recorder) error {
		c.rec = rec
		err := c.js.Run(prog)
		c.rec = nil
		return err
	})
	if hit != nil {
		for _, ef := range hit.Effects() {
			switch ef.Kind {
			case discovery.EffectFetch:
				c.fetchJS(ef.S, ef.Respect)
			case discovery.EffectWrite:
				c.write(ef.S)
			}
		}
	}
	c.jsCtx = saved
	c.jsMu.Unlock()
	if err != nil {
		c.addError(fmt.Errorf("js run %s: %w", baseURL, err))
	}
}

// fetchJS requests a URL a script fetched, resolved in the active context.
// Caller holds jsMu.
func (c *crawler) fetchJS(raw string, respectCtx bool) {
	u := htmlparse.ResolveURL(c.jsCtx.baseURL, raw)
	if u == "" {
		return
	}
	c.request(u, respectCtx && c.jsCtx.blocking, c.jsCtx.depth+1)
}

// write discovers what document.write markup references — its resources,
// inline-style assets and inline scripts — in the active context. Inline
// scripts run at once, nested in the writing script; a recording that sees
// them is marked non-cacheable, since replaying the write re-runs them.
// Caller holds jsMu.
func (c *crawler) write(html string) {
	root, ok := discovery.HTMLString(html)
	if !ok {
		return
	}
	ctx := c.jsCtx
	for _, res := range htmlparse.Resources(root, ctx.baseURL) {
		c.request(res.URL, ctx.blocking && !res.Async, ctx.depth+1)
	}
	for _, css := range htmlparse.InlineStyles(root) {
		for _, u := range discovery.AssetURLs(css, ctx.baseURL) {
			c.request(u, ctx.blocking, ctx.depth+1)
		}
	}
	for _, script := range htmlparse.InlineScripts(root) {
		c.rec.Uncacheable()
		prog, err := minijs.Compile(script)
		if err != nil {
			continue
		}
		if err := c.js.Run(prog); err != nil {
			c.addError(err)
		}
	}
}

// bindBuiltins installs the proxy-side host environment. It mirrors the
// simulated browser's (internal/browser), feeding the same exec-outcome
// recorder, except that interaction handlers are dropped (they run on the
// client) and nothing is costed.
func (c *crawler) bindBuiltins() {
	fetchFn := func(respectCtx bool) minijs.Native {
		return func(args []minijs.Value) (minijs.Value, error) {
			if len(args) < 1 {
				return minijs.Null(), fmt.Errorf("fetch needs a URL")
			}
			raw := args[0].Str()
			c.rec.Fetch(raw, respectCtx)
			c.fetchJS(raw, respectCtx)
			return minijs.Null(), nil
		}
	}
	c.js.BindNative("fetch", fetchFn(true))
	c.js.BindNative("fetchAsync", fetchFn(false))
	c.js.BindNative("setTimeout", func(args []minijs.Value) (minijs.Value, error) {
		if len(args) < 2 {
			return minijs.Null(), fmt.Errorf("setTimeout needs (ms, fn)")
		}
		ms := args[0].Num()
		fn := args[1].Closure()
		if fn == nil {
			return minijs.Null(), fmt.Errorf("setTimeout second arg must be a function")
		}
		c.rec.Uncacheable() // the timer captures an interpreter-bound closure
		ctx := c.jsCtx
		ctx.blocking = false
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.stopped {
			return minijs.Null(), nil
		}
		c.pendingTotal++
		c.timers = append(c.timers, c.after(time.Duration(ms)*time.Millisecond, func() {
			if !c.live() {
				return
			}
			c.jsMu.Lock()
			saved := c.jsCtx
			c.jsCtx = ctx
			_, err := c.js.CallClosure(fn)
			c.jsCtx = saved
			c.jsMu.Unlock()
			if err != nil {
				c.addError(err)
			}
			c.finish(false)
		}))
		return minijs.Null(), nil
	})
	c.js.BindNative("onEvent", func(args []minijs.Value) (minijs.Value, error) {
		// Handlers run on the client, not the proxy; a browser engine
		// replaying this outcome would still need to register them.
		c.rec.Uncacheable()
		return minijs.Null(), nil
	})
	c.js.BindNative("rand", func(args []minijs.Value) (minijs.Value, error) {
		n := 1 << 20
		if len(args) > 0 && args[0].Num() > 0 {
			n = int(args[0].Num())
		}
		if c.fixedRandom {
			c.rec.UsedFixedRandom()
			return minijs.Number(webgen.FixedRandValue), nil
		}
		c.rec.Uncacheable() // consumes the crawler's RNG stream
		return minijs.Number(float64(c.rng.Intn(n))), nil
	})
	c.js.BindNative("log", func([]minijs.Value) (minijs.Value, error) { return minijs.Null(), nil })
	domOp := minijs.NativeValue(func([]minijs.Value) (minijs.Value, error) {
		c.rec.DOM()
		return minijs.Null(), nil
	})
	c.js.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write": minijs.NativeValue(func(args []minijs.Value) (minijs.Value, error) {
			if len(args) < 1 {
				return minijs.Null(), nil
			}
			html := args[0].Str()
			c.rec.Write(html)
			c.write(html)
			return minijs.Null(), nil
		}),
		"append": domOp, "remove": domOp, "show": domOp, "hide": domOp,
	}))
}
