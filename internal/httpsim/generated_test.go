package httpsim_test

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

// TestServesGeneratedPinnedValidator fetches every object of a generated
// page from the topology's origins and checks each response carries the
// validator pinned on the shared store at generation time.
func TestServesGeneratedPinnedValidator(t *testing.T) {
	page := webgen.Generate(webgen.Spec{Seed: 5, NumPages: 3})[2]
	topo := scenario.Build(page, scenario.DefaultParams())
	client := httpsim.NewClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver, 6)
	store := page.SharedStore()
	got := make(map[string]string, len(page.Objects))
	for _, o := range page.Objects {
		client.Do(httpsim.Request{Method: "GET", URL: o.URL}, func(r httpsim.Response, _ time.Duration) {
			got[r.URL] = r.Validator
		})
	}
	topo.Sim.Run()
	for _, o := range page.Objects {
		pinned := store[o.URL].Validator
		if pinned == "" {
			t.Fatalf("%s: shared store carries no pinned validator", o.URL)
		}
		if got[o.URL] != pinned {
			t.Fatalf("%s: served validator %q, want pinned %q", o.URL, got[o.URL], pinned)
		}
	}
}
