// Command perfbench is the repository's benchmark. It runs one named
// workload from a single process, prints every metric by name and unit,
// checks that the outputs are correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	sweep       experiments.Sweep over the paper's 34-page set (DIR and
//	            PARCEL(IND)) on the batched engine with 2 workers.
//	fleet-warm  origin, sharded proxy and mux clients on loopback; the shared
//	            cache holds the whole 8-page set, filled at set-up.
//	fleet-lte   fleet-warm's set-up with each client link shaped by
//	            netem.LTE().
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// follows the timed part with a serial replay of the workload's pages
// through each layer's public functions, once with spans and once without
// (the difference is the tracing overhead), and reports per-layer numbers. Spans are written to the -spans
// directory. Build and run it through perfbench/run.sh from the repository
// root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/parcel-go/parcel/internal/stats"
)

// tenants is the closed-loop client count of every workload: one per core
// of the 2-core machine the benchmark was sized on.
const tenants = 2

// setups is how many times each workload repeats its set-up; setup_s is
// the median.
const setups = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: counts, correctness problems, and
// the metrics of the mode it ran in. base gives each metric its count base
// for the human-readable table.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	base              map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, base: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, base string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if base != "" {
		r.base[name] = base
	}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string // where the traced run writes its spans
	stamp   string // buildStamp, the first line of the span file
}

var workloads = map[string]func(options) (*report, error){
	"sweep":      runSweep,
	"fleet-warm": func(o options) (*report, error) { return runFleet(o, fleetWarm) },
	"fleet-lte":  func(o options) (*report, error) { return runFleet(o, fleetLTE) },
}

func main() {
	name := flag.String("workload", "", "workload to run (sweep, fleet-warm, fleet-lte)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run (whole units of work are completed)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {sweep|fleet-warm|fleet-lte} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	stamp := buildStamp()
	fmt.Printf("stamp: %s\n", stamp)
	rep, err := run(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, spans: *spans, stamp: stamp})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printTable(rep)
	for _, p := range rep.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// moves names, for each per-layer metric, the end-to-end metric it should
// move and on which workload.
var moves = map[string]string{
	"scenario.build_ms":              "sweep pages_per_s",
	"browser.prewarm_ms":             "setup_s",
	"core.sim_ms":                    "sweep pages_per_s, cpu_ms_per_page",
	"dirbrowser.sim_ms":              "sweep pages_per_s, cpu_ms_per_page",
	"eventsim.events_per_sim":        "sweep pages_per_s",
	"eventsim.ns_per_event":          "sweep pages_per_s",
	"simnet.packets_per_sim":         "sweep pages_per_s",
	"radio.simulate_us":              "sweep cpu_ms_per_page",
	"runner.batch_gain":              "sweep pages_per_s",
	"htmlparse.parse_us_per_page":    "fleet-warm page_load_p50_ms, ttfc_p50_ms, cpu_ms_per_page",
	"cssparse.refs_us_per_page":      "fleet-warm page_load_p50_ms, ttfc_p50_ms, cpu_ms_per_page",
	"minijs.run_us_per_page":         "fleet-warm page_load_p50_ms, ttfc_p50_ms, cpu_ms_per_page",
	"sched.bundle_us_per_page":       "fleet-warm cpu_ms_per_page, fleet-lte ttfc_p50_ms",
	"sched.flushes_per_page":         "fleet-warm cpu_ms_per_page, fleet-lte ttfc_p50_ms",
	"parcelnet.mux_encode_ns_per_kb": "fleet-warm cpu_ms_per_page",
	"parcelnet.mux_decode_ns_per_kb": "fleet-warm cpu_ms_per_page",
	"parcelnet.origin_fetch_us":      "fleet-warm, fleet-lte setup_s (set-up fills the cache from the origin)",
	"origin.requests_per_page":       "fleet-warm cpu_ms_per_page, page_load_p50_ms (near 0 while the cache holds the set)",
	"origin.kb_per_page":             "fleet-warm cpu_ms_per_page, page_load_p50_ms (near 0 while the cache holds the set)",
	"objcache.hit_us":                "fleet-warm cpu_ms_per_page",
	"objcache.miss_us":               "fleet-warm, fleet-lte setup_s (set-up fills the cache from the origin)",
	"objcache.hit_ratio":             "fleet-warm cpu_ms_per_page, page_load_p50_ms",
	"objcache.evictions_per_page":    "fleet-warm cpu_ms_per_page, page_load_p50_ms",
	"parcelnet.pushed_per_page":      "every fleet's egress_kb_per_page, page_load_p50_ms",
	"parcelnet.fallbacks_per_page":   "every fleet's egress_kb_per_page, page_load_p50_ms",
	"parcelnet.deferred_per_page":    "every fleet's egress_kb_per_page, page_load_p50_ms",
	"parcelnet.shed_per_page":        "every fleet's egress_kb_per_page, page_load_p50_ms",
	"netem.link_utilization":         "fleet-lte page_load_p50_ms (near 1: CPU changes leave it flat)",
	"trace.overhead_pct":             "none: traced over untraced wall time of the serial replay",
}

// printTable prints every metric with its unit, its count base and, for a
// per-layer metric, the end-to-end metric it should move.
func printTable(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		line := fmt.Sprintf("%-34s %14.4f %-6s %s", n, m.Value, m.Unit, rep.base[n])
		if mv, ok := moves[n]; ok {
			line += " -> moves " + mv
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted=%d failed=%d\n", rep.attempted, rep.failed)
}

// buildStamp identifies the build and machine a result came from.
func buildStamp() string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	s, _ := json.Marshal(map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	})
	return string(s)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a point-in-time reading of the process clock and CPU counters.
type usage struct {
	wall time.Time
	cpu  time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// since returns the wall and CPU time elapsed from u.
func (u usage) since() (wall, cpu time.Duration) {
	now := readUsage()
	return now.wall.Sub(u.wall), now.cpu - u.cpu
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Maxrss is in KiB on Linux
}

// setEndToEnd fills the metrics every workload reports from the timed run.
func setEndToEnd(rep *report, setup []float64, pagesPerS, cpuMsPerPage float64, base string) {
	rep.set("setup_s", stats.Median(setup), "s", fmt.Sprintf("median of %d set-ups", len(setup)))
	rep.set("pages_per_s", pagesPerS, "1/s", base)
	rep.set("cpu_ms_per_page", cpuMsPerPage, "ms", base)
	rep.set("rss_peak_mb", peakRSSMB(), "MB", "process peak")
}

// percentile returns the p-th percentile of xs and a note on how many
// samples lie beyond it.
func percentile(xs []float64, p float64) (float64, string) {
	beyond := len(xs) - 1 - int(p/100*float64(len(xs)-1))
	note := fmt.Sprintf("%d samples, %d beyond", len(xs), beyond)
	if beyond < 10 {
		note += " (fewer than 10: indicative only)"
	}
	return stats.Percentile(xs, p), note
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
