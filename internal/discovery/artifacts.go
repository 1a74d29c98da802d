package discovery

import (
	"strings"
	"sync"

	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
)

// Page-artifact cache: parsed DOM trees, CSS ref lists, and inline-style
// asset URLs, shared across every engine in the process. The same webgen
// page is loaded by the DIR, CB, and PARCEL schemes — and by every round of
// a sweep — and within one PARCEL load the proxy's discovery browser and
// the client's renderer each parse the identical bytes; on the TCP arm
// every proxy session crawling a page parses the same bytes again. All
// cached values are pure functions of their keys (document bytes, or
// stylesheet text + base URL), and htmlparse trees are immutable once Parse
// returns (engines only read them), so sharing cannot leak state between
// rounds or sessions:
// eviction or a cold cache can only cost a re-parse, never change a metric.
// Modelled CPU costs stay untouched by construction — they derive from byte
// lengths (perKB) and interpreter op counts, not from real Go work done.
//
// Concurrency: the experiment runner's workers and the proxy's sessions all
// read it, so the cache is guarded by an RWMutex; hits take the read lock
// only.

// maxArtifactEntries bounds the total entry count across the three maps.
// When full, the cache is cleared outright (epoch clear, like the minijs
// program cache): deterministic, and cheaper than tracking recency.
const maxArtifactEntries = 4096

type htmlArtifact struct {
	root  *htmlparse.Node
	nodes []*htmlparse.Node // element nodes (Tag != "") in document order
	bad   bool              // body does not parse (deterministic per body)
}

var artCache = struct {
	mu sync.RWMutex
	n  int // total entries across all maps
	// html is keyed by document bytes; refs and assets are two-level
	// (base URL, then content) so the hot inner lookup can use Go's
	// byte-slice-keyed string indexing without allocating.
	html   map[string]*htmlArtifact
	refs   map[string]map[string][]cssparse.Ref
	assets map[string]map[string][]string
}{
	html:   make(map[string]*htmlArtifact, 64),
	refs:   make(map[string]map[string][]cssparse.Ref, 16),
	assets: make(map[string]map[string][]string, 16),
}

// evictLocked clears the whole cache once it reaches capacity. Caller holds
// the write lock. Callers that cached an outer map pointer must re-fetch it
// after inserting (insert helpers below handle this).
func evictLocked() {
	if artCache.n < maxArtifactEntries {
		return
	}
	artCache.html = make(map[string]*htmlArtifact, 64)
	artCache.refs = make(map[string]map[string][]cssparse.Ref, 16)
	artCache.assets = make(map[string]map[string][]string, 16)
	artCache.n = 0
}

func buildHTMLArtifact(body []byte) *htmlArtifact {
	root, err := htmlparse.Parse(body)
	if err != nil {
		return &htmlArtifact{bad: true}
	}
	art := &htmlArtifact{root: root}
	htmlparse.Walk(root, func(n *htmlparse.Node) {
		if n.Tag != "" {
			art.nodes = append(art.nodes, n)
		}
	})
	return art
}

// HTML returns the parsed tree and its element list for a document
// body, parsing at most once per distinct body process-wide. ok is false
// when the body does not parse.
func HTML(body []byte) (root *htmlparse.Node, nodes []*htmlparse.Node, ok bool) {
	artCache.mu.RLock()
	art := artCache.html[string(body)]
	artCache.mu.RUnlock()
	if art == nil {
		art = buildHTMLArtifact(body)
		artCache.mu.Lock()
		evictLocked()
		if prev := artCache.html[string(body)]; prev != nil {
			art = prev // lost a race; keep the first tree so sharing holds
		} else {
			artCache.html[string(body)] = art
			artCache.n++
		}
		artCache.mu.Unlock()
	}
	return art.root, art.nodes, !art.bad
}

// HTMLString is HTML for fragments already held as strings
// (document.write payloads).
func HTMLString(html string) (*htmlparse.Node, bool) {
	artCache.mu.RLock()
	art := artCache.html[html]
	artCache.mu.RUnlock()
	if art == nil {
		art = buildHTMLArtifact([]byte(html))
		artCache.mu.Lock()
		evictLocked()
		if prev := artCache.html[html]; prev != nil {
			art = prev
		} else {
			artCache.html[html] = art
			artCache.n++
		}
		artCache.mu.Unlock()
	}
	return art.root, !art.bad
}

// CSSRefs returns cssparse.Refs(body, baseURL), computed once per
// (base URL, stylesheet bytes) pair.
func CSSRefs(body []byte, baseURL string) []cssparse.Ref {
	artCache.mu.RLock()
	inner := artCache.refs[baseURL]
	refs, hit := inner[string(body)]
	artCache.mu.RUnlock()
	if hit {
		return refs
	}
	refs = cssparse.Refs(string(body), baseURL)
	artCache.mu.Lock()
	evictLocked()
	inner = artCache.refs[baseURL] // re-fetch: evictLocked may have cleared
	if inner == nil {
		inner = make(map[string][]cssparse.Ref, 4)
		artCache.refs[baseURL] = inner
	}
	if prev, ok := inner[string(body)]; ok {
		refs = prev
	} else {
		inner[string(body)] = refs
		artCache.n++
	}
	artCache.mu.Unlock()
	return refs
}

// AssetURLs returns cssparse.AssetURLs(text, baseURL), computed once
// per (base URL, inline-style text) pair.
func AssetURLs(text, baseURL string) []string {
	artCache.mu.RLock()
	urls, hit := artCache.assets[baseURL][text]
	artCache.mu.RUnlock()
	if hit {
		return urls
	}
	urls = cssparse.AssetURLs(text, baseURL)
	artCache.mu.Lock()
	evictLocked()
	inner := artCache.assets[baseURL]
	if inner == nil {
		inner = make(map[string][]string, 4)
		artCache.assets[baseURL] = inner
	}
	if prev, ok := inner[text]; ok {
		urls = prev
	} else {
		inner[text] = urls
		artCache.n++
	}
	artCache.mu.Unlock()
	return urls
}

// Prewarm populates the artifact and program caches for one page object
// before any engine loads it (browser.Prewarm, called while a simulated
// topology is built), so parsing and script compilation are cache hits by
// the time engines run. It is an optimization only: engines compute
// identical artifacts on demand if it is never called.
func Prewarm(url, contentType string, body []byte) {
	switch {
	case strings.Contains(contentType, "html"):
		_, nodes, ok := HTML(body)
		if !ok {
			return
		}
		for _, n := range nodes {
			switch n.Tag {
			case "script":
				if n.Attr("src") == "" && strings.TrimSpace(n.Text) != "" {
					_, _ = minijs.Compile(n.Text)
				}
			case "style":
				AssetURLs(n.Text, url)
			}
		}
	case strings.Contains(contentType, "css"):
		CSSRefs(body, url)
	case strings.Contains(contentType, "javascript"):
		_, _ = minijs.CompileBytes(body)
	}
}

// Reset drops every artifact and recorded script outcome, so the next
// engine to load a page pays the cold cost. Sharing cannot change what an
// engine discovers, only what it costs; tests use Reset to compare the two.
func Reset() {
	artCache.mu.Lock()
	artCache.n = maxArtifactEntries
	evictLocked()
	artCache.mu.Unlock()
	execCache.Lock()
	execCache.m = nil
	execCache.Unlock()
}
