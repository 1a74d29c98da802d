package parcelnet

import (
	"strings"
	"testing"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
)

// storeFetcher serves a simulated browser engine from an in-memory store.
type storeFetcher struct {
	sim   *eventsim.Simulator
	store httpsim.MapStore
}

func (f storeFetcher) Fetch(url string, cb func(browser.Result)) {
	f.sim.Schedule(0, func() {
		o, ok := f.store[url]
		if !ok {
			cb(browser.Result{URL: url, Status: 404, At: f.sim.Now()})
			return
		}
		cb(browser.Result{URL: url, Status: 200, ContentType: o.ContentType, Body: o.Body, At: f.sim.Now()})
	})
}

// browserDiscovers loads mainURL in the simulator's discovery engine (the
// PARCEL proxy's headless browser) and returns every URL it requested.
func browserDiscovers(store httpsim.MapStore, mainURL string, execCache bool) []string {
	sim := eventsim.New(1)
	e := browser.New(sim, storeFetcher{sim: sim, store: store}, browser.Options{
		CPU: browser.ProxyCPU(), FixedRandom: true, ExecCache: execCache,
	})
	e.Load(mainURL)
	sim.Run()
	return e.RequestedURLs()
}

// crossArmDiff compares what the two arms' discovery engines find on one
// page and returns a description of the difference ("" when they agree).
func crossArmDiff(store httpsim.MapStore, mainURL string, execCache bool) string {
	sim := browserDiscovers(store, mainURL, execCache)
	tcp := crawlSerial(store, mainURL, true).requestedURLs()
	if strings.Join(sim, "\n") == strings.Join(tcp, "\n") {
		return ""
	}
	return "browser.Engine found\n  " + strings.Join(sim, "\n  ") +
		"\nthe TCP crawler found\n  " + strings.Join(tcp, "\n  ")
}

// TestCrossArmDiscoveryAgrees: on every webgen page under the fixed-random
// rewrite, the TCP proxy's crawler requests exactly the URL set the
// simulated proxy's browser engine does — with the shared exec-outcome
// cache in play in either order, and without it.
func TestCrossArmDiscoveryAgrees(t *testing.T) {
	for _, p := range webgenPages() {
		store := p.Store()
		for _, execCache := range []bool{false, true} {
			if diff := crossArmDiff(store, p.MainURL, execCache); diff != "" {
				t.Fatalf("%s (exec cache %v):\n%s", p.Name, execCache, diff)
			}
		}
	}
}

// TestCrossArmInlineStyleInWrite: markup a script document.writes can carry
// an inline <style> whose assets the browser requests; the crawler must
// request them too.
func TestCrossArmInlineStyleInWrite(t *testing.T) {
	store := fixtureStore(`document.write("<style>.hero { background: url(s.png); }</style><img src='a.png'>");`)
	if diff := crossArmDiff(store, fixtureURL, true); diff != "" {
		t.Fatal(diff)
	}
	if !crawlSerial(store, fixtureURL, true).requested["http://fixture.test/s.png"] {
		t.Fatal("crawler missed the written style's asset")
	}
}
