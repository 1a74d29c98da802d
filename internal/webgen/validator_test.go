package webgen_test

import (
	"testing"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/webgen"
)

// TestGeneratedObjectsCarryValidators pins the contract that lets origins
// skip hashing: every generated object carries its content validator, and
// the shared origin store and a replay archive of the set hand it on.
func TestGeneratedObjectsCarryValidators(t *testing.T) {
	pages := webgen.Generate(webgen.Spec{Seed: 5, NumPages: 6})
	archive := replay.FromPages(pages...)
	for _, p := range pages {
		store := p.SharedStore()
		for _, o := range p.Objects {
			want := httpsim.ContentValidator(o.Body)
			if o.Validator != want {
				t.Fatalf("%s: Objects validator %q, want %q", o.URL, o.Validator, want)
			}
			if got := store[o.URL].Validator; got != want {
				t.Fatalf("%s: SharedStore validator %q, want %q", o.URL, got, want)
			}
			// Pages of a set may share a URL (ad creatives) with different
			// bodies; the archive keeps the last page's, so check it against
			// its own body.
			got, ok := archive.Get(o.URL)
			if !ok || got.Validator != httpsim.ContentValidator(got.Body) {
				t.Fatalf("%s: replay archive validator %q (found %v) does not match its body", o.URL, got.Validator, ok)
			}
		}
	}
}
