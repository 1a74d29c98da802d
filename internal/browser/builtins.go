package browser

import (
	"fmt"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
)

// bindBuiltins installs the host environment scripts run against.
//
//	fetch(url)              fetch an object (blocks onload in parse context)
//	fetchAsync(url)         fetch without blocking onload
//	setTimeout(ms, fn)      run fn after ms of page time (fetches inside are
//	                        post-onload/async, like real async JS, §2.1)
//	onEvent(evt, id, fn)    register an interaction handler (runs locally)
//	rand(n)                 random int in [0,n) — constant under FixedRandom
//	log(msg)                no-op diagnostic
//	document.write(html)    inject markup; its resources are discovered
//	document.append(id)     DOM mutation (costed, no discovery)
//	document.show(id) / document.hide(id)
func (e *Engine) bindBuiltins() {
	e.in.BindNative("fetch", func(args []minijs.Value) (minijs.Value, error) {
		return e.builtinFetch(args, true)
	})
	e.in.BindNative("fetchAsync", func(args []minijs.Value) (minijs.Value, error) {
		return e.builtinFetch(args, false)
	})
	e.in.BindNative("setTimeout", func(args []minijs.Value) (minijs.Value, error) {
		if len(args) < 2 {
			return minijs.Null(), fmt.Errorf("setTimeout needs (ms, fn)")
		}
		ms := args[0].Num()
		fn := args[1].Closure()
		if fn == nil {
			return minijs.Null(), fmt.Errorf("setTimeout second arg must be a function")
		}
		e.rec.Uncacheable() // timer captures an engine-bound closure
		ctx := *e.curCtx
		e.addEffect(func() {
			e.TimersSet++
			e.pendingTotal++
			//parcelvet:allow noclosure(one allocation per page-level JS timer, not per packet; the continuation needs the full scriptCtx and closure value, which have no pooled carrier)
			e.sim.Schedule(time.Duration(ms)*time.Millisecond, func() {
				tctx := scriptCtx{baseURL: ctx.baseURL, blocking: false, depth: ctx.depth}
				e.runBuffered(tctx, func() error {
					_, err := e.in.CallClosure(fn)
					return err
				})
			})
		})
		return minijs.Null(), nil
	})
	e.in.BindNative("onEvent", func(args []minijs.Value) (minijs.Value, error) {
		if len(args) < 3 {
			return minijs.Null(), fmt.Errorf("onEvent needs (event, target, fn)")
		}
		event, target := args[0].Str(), args[1].Str()
		fn := args[2].Closure()
		if fn == nil {
			return minijs.Null(), fmt.Errorf("onEvent third arg must be a function")
		}
		e.rec.Uncacheable() // handler captures an engine-bound closure
		key := event + "/" + target
		e.addEffect(func() {
			e.handlers[key] = append(e.handlers[key], fn)
		})
		return minijs.Null(), nil
	})
	e.in.BindNative("rand", func(args []minijs.Value) (minijs.Value, error) {
		n := 1 << 20
		if len(args) > 0 && args[0].Num() > 0 {
			n = int(args[0].Num())
		}
		if e.opt.FixedRandom {
			// The web-page-replay rewrite (§7.3): a constant replaces the
			// random so proxy and client derive identical URLs.
			e.rec.UsedFixedRandom()
			return minijs.Number(4), nil
		}
		e.rec.Uncacheable() // consumes the simulation RNG stream
		return minijs.Number(float64(e.sim.Rand().Intn(n))), nil
	})
	e.in.BindNative("log", func(args []minijs.Value) (minijs.Value, error) {
		return minijs.Null(), nil
	})
	domOp := func(args []minijs.Value) (minijs.Value, error) {
		e.rec.DOM()
		e.addEffect(func() { e.DOMOps++ })
		return minijs.Null(), nil
	}
	e.in.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write": minijs.NativeValue(func(args []minijs.Value) (minijs.Value, error) {
			if len(args) < 1 {
				return minijs.Null(), nil
			}
			html := args[0].Str()
			e.rec.Write(html)
			ctx := *e.curCtx
			e.addEffect(func() {
				root, ok := discovery.HTMLString(html)
				if !ok {
					return
				}
				e.discoverFromTree(root, ctx.baseURL, ctx.blocking, ctx.depth+1)
			})
			return minijs.Null(), nil
		}),
		"append": minijs.NativeValue(domOp),
		"remove": minijs.NativeValue(domOp),
		"show":   minijs.NativeValue(domOp),
		"hide":   minijs.NativeValue(domOp),
	}))
}

func (e *Engine) builtinFetch(args []minijs.Value, respectCtx bool) (minijs.Value, error) {
	if len(args) < 1 {
		return minijs.Null(), fmt.Errorf("fetch needs a URL")
	}
	raw := args[0].Str()
	e.rec.Fetch(raw, respectCtx)
	ctx := *e.curCtx
	url := htmlparse.ResolveURL(ctx.baseURL, raw)
	if url == "" {
		return minijs.Null(), nil
	}
	blocking := false
	if respectCtx {
		blocking = ctx.blocking
	}
	e.addEffect(func() {
		e.requestObject(url, blocking, ctx.depth+1)
	})
	return minijs.Null(), nil
}

// FireEvent delivers a user interaction (e.g. a button click, §8.2) to the
// page's registered handlers. Handlers execute locally in this engine; any
// fetches they perform are non-blocking. It returns the number of handlers
// invoked.
func (e *Engine) FireEvent(event, target string) int {
	key := event + "/" + target
	hs := e.handlers[key]
	for _, h := range hs {
		h := h
		e.pendingTotal++ // balanced by runBuffered's finish
		e.runBuffered(scriptCtx{baseURL: e.baseURL, blocking: false, depth: 0}, func() error {
			_, err := e.in.CallClosure(h)
			return err
		})
	}
	return len(hs)
}

// Handlers returns the number of handlers registered for event/target.
func (e *Engine) Handlers(event, target string) int {
	return len(e.handlers[event+"/"+target])
}
