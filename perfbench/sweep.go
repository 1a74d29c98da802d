package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/webgen"
)

const (
	sweepPages   = 34 // the paper's evaluation set (§7.2)
	sweepRounds  = 5  // measurement rounds per (page, scheme) in one repetition
	sweepWorkers = 2
	sweepJitter  = 2 * time.Millisecond
)

var (
	sweepSched   = sched.ConfigIND
	sweepSchemes = []experiments.Scheme{experiments.DIRScheme, experiments.ParcelScheme(sweepSched)}
)

// sweepConfig is the timed sweep: the paper's page set (generator seed 1)
// with per-packet LTE jitter drawn from the workload seed. The seed varies
// the simulated network, not the page mix, so every run does comparable
// work.
func sweepConfig(seed int64) experiments.Config {
	return experiments.Config{
		Seed:        1,
		Pages:       sweepPages,
		Runs:        sweepRounds,
		Jitter:      sweepJitter + time.Duration(seed%20)*25*time.Microsecond,
		Parallelism: sweepWorkers,
	}
}

// sweepSetup generates one page set, memoises its discovery artifacts
// (browser.Prewarm), and runs one untimed repetition of the sweep so the
// batched engine's pools and script exec-outcome cache are warm. It returns
// the repetition's digest.
func sweepSetup(t *tracer, cfg experiments.Config) string {
	pages := webgen.Generate(webgen.Spec{Seed: cfg.Seed, NumPages: cfg.Pages})
	for i, p := range pages {
		t.do("browser.prewarm", i, -1, func() {
			for _, o := range p.Objects {
				browser.Prewarm(o.URL, o.ContentType, o.Body)
			}
		})
	}
	return sweepDigest(experiments.Sweep(cfg, sweepSchemes))
}

// sweepDigest hashes every per-page, per-scheme median run.
func sweepDigest(res []experiments.PageResult) string {
	h := sha256.New()
	for _, pr := range res {
		for _, s := range sweepSchemes {
			fmt.Fprintf(h, "%s|%s|%+v\n", pr.Page.Name, s.Name, pr.Runs[s.Name])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sweepRun is the outcome of one timed sweep run.
type sweepRun struct {
	sims  int
	rate  []float64 // simulated pages per second, per repetition
	cpuMs []float64 // process CPU ms per simulated page, per repetition
	last  []experiments.PageResult
}

// pagesPerS and cpuMsPerPage are the medians over repetitions, which keeps
// a burst of outside load on the machine from moving the run's figure.
func (r sweepRun) pagesPerS() float64    { return stats.Median(r.rate) }
func (r sweepRun) cpuMsPerPage() float64 { return stats.Median(r.cpuMs) }

// sweepTimed runs whole repetitions until d has elapsed. Every repetition
// must reproduce want, the set-up repetition's digest.
func sweepTimed(cfg experiments.Config, want string, d time.Duration, rep *report) sweepRun {
	perRep := cfg.Pages * len(sweepSchemes) * cfg.Runs
	var r sweepRun
	start := time.Now()
	for reps := 0; reps == 0 || time.Since(start) < d; reps++ {
		u := readUsage()
		r.last = experiments.Sweep(cfg, sweepSchemes)
		wall, cpu := u.since()
		r.sims += perRep
		r.rate = append(r.rate, float64(perRep)/wall.Seconds())
		r.cpuMs = append(r.cpuMs, ms(cpu)/float64(perRep))
		if got := sweepDigest(r.last); got != want {
			rep.problem("sweep repetition %d digest %.12s differs from set-up digest %.12s", reps, got, want)
		}
	}
	for _, pr := range r.last {
		for _, s := range sweepSchemes {
			if run := pr.Runs[s.Name]; run.TLT <= 0 || run.ObjectsLoaded == 0 {
				rep.failed += cfg.Runs
			}
		}
	}
	return r
}

func runSweep(o options) (*report, error) {
	rep := newReport()
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	cfg := sweepConfig(o.seed)
	// Each set-up works on its own page set so that every one of them pays
	// the full generation and discovery cost. The timed run's page set goes
	// last, so the process-wide discovery and script caches hold it when
	// timing starts.
	var setup []float64
	var want string
	for k := setups - 1; k >= 0; k-- {
		c := cfg
		c.Seed += int64(k)
		u := readUsage()
		want = sweepSetup(t, c)
		wall, _ := u.since()
		setup = append(setup, wall.Seconds())
		runtime.GC()
	}

	run := sweepTimed(cfg, want, o.seconds, rep)
	rep.attempted = run.sims
	if !o.trace {
		setEndToEnd(rep, setup, run.pagesPerS(), run.cpuMsPerPage(), fmt.Sprintf("median of %d repetitions of %d sims", len(run.rate), run.sims/len(run.rate)))
		sweepUserMetrics(rep, cfg, run.last)
		return rep, nil
	}

	setBatchGain(t, rep, cfg)
	pages := webgen.Generate(webgen.Spec{Seed: cfg.Seed, NumPages: cfg.Pages})
	if err := replayLayers(t, rep, pages, sweepSched, false); err != nil {
		return nil, err
	}
	setFleetCounters(rep, fleetKind{name: "sweep"}, fleetRun{})
	return rep, t.write(o.spans, fmt.Sprintf("sweep-seed%d.jsonl", o.seed), o.stamp)
}

// sweepUserMetrics reports what the simulated PARCEL(IND) user sees on the
// sweep's pages, in virtual time: page load (TLT, all objects held), bytes
// received over the simulated LTE link, and time to the first critical
// object from a PARCEL session per page.
func sweepUserMetrics(rep *report, cfg experiments.Config, res []experiments.PageResult) {
	var tlt []float64
	var down int64
	for _, pr := range res {
		r := pr.Runs[sweepSched.String()]
		tlt = append(tlt, ms(r.TLT))
		down += r.BytesDown
	}
	p50, n50 := percentile(tlt, 50)
	p90, n90 := percentile(tlt, 90)
	rep.set("page_load_p50_ms", p50, "ms", "simulated PARCEL TLT, "+n50)
	rep.set("page_load_p90_ms", p90, "ms", "simulated PARCEL TLT, "+n90)
	rep.set("egress_kb_per_page", float64(down)/1000/float64(len(res)), "KB", fmt.Sprintf("simulated client bytes down, %d pages", len(res)))

	var ttfc []float64
	params := scenario.DefaultParams()
	params.Seed = cfg.Seed
	params.LTEJitter = cfg.Jitter
	pc := core.DefaultProxyConfig()
	pc.Sched = sweepSched
	for _, pr := range res {
		topo := scenario.Build(pr.Page, params)
		core.StartProxy(topo, pc)
		lc := core.NewLoadClient(0, topo.Sim, topo.Client, topo.Proxy, pr.Page.MainURL)
		lc.StartAt(0)
		topo.Sim.Run()
		if l := lc.SessionLoad(); l.FirstCritical > 0 {
			ttfc = append(ttfc, ms(l.FirstCritical))
		} else {
			rep.problem("simulated PARCEL session for %s delivered no critical object", pr.Page.Name)
		}
	}
	if len(ttfc) > 0 {
		v, n := percentile(ttfc, 50)
		rep.set("ttfc_p50_ms", v, "ms", "simulated PARCEL session, "+n)
	}
}

// setBatchGain times the sweep sample on the serial reference engine and on
// the batched engine, checks that their outputs are identical, and reports
// the batched rate over the serial rate.
func setBatchGain(t *tracer, rep *report, cfg experiments.Config) {
	sample := cfg
	sample.Runs = 1
	serialCfg := sample
	serialCfg.BatchSize, serialCfg.Parallelism = 1, 1
	var serial, batched []experiments.PageResult
	start := time.Now()
	t.do("runner.serial", 0, -1, func() { serial = experiments.Sweep(serialCfg, sweepSchemes) })
	mid := time.Now()
	t.do("runner.batched", 0, -1, func() { batched = experiments.Sweep(sample, sweepSchemes) })
	end := time.Now()
	for i := range serial {
		for _, s := range sweepSchemes {
			if !reflect.DeepEqual(serial[i].Runs[s.Name], batched[i].Runs[s.Name]) {
				rep.problem("batched engine diverged from the serial engine on page %d scheme %s", i, s.Name)
			}
		}
	}
	sims := sample.Pages * len(sweepSchemes)
	rep.set("runner.batch_gain", mid.Sub(start).Seconds()/end.Sub(mid).Seconds(), "ratio",
		fmt.Sprintf("%d sims, batched %d workers vs serial; outputs identical", sims, sweepWorkers))
}
