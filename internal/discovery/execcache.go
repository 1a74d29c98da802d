package discovery

import (
	"sync"

	"github.com/parcel-go/parcel/internal/minijs"
)

// The exec-outcome cache memoizes what running a compiled script *does* —
// its op count, its side effects in abstract form, and its net global-scope
// reads and writes — so every engine that executes the same script body
// (every scheme, round, and batch member of a sweep; every proxy session of
// a page) interprets it once and replays the outcome.
//
// Replay is only taken when it is provably identical to execution:
//
//   - the recorded global read-set must match the replaying interpreter's
//     pre-state exactly (scalars by value, builtins by kind), so any
//     pre-state the script could branch on is re-validated;
//   - the recorded op delta must fit the replaying interpreter's op budget,
//     otherwise the script re-executes so the budget error surfaces at the
//     same op it would have without the cache;
//   - scripts that touch engine identity — setTimeout/onEvent (capture
//     closures), rand() without FixedRandom (consumes an RNG stream),
//     markup whose inline scripts run nested inside the recording,
//     non-scalar global writes, or any runtime error — are marked
//     non-cacheable at record time and always re-execute.
//
// Effects are stored context-free (the raw fetch URL, the written markup)
// and re-resolved by each arm's applier against the replaying script
// context, so one recording serves every base URL / blocking / depth
// combination and both arms: the simulator applies effects as buffered
// virtual-time tasks, the TCP crawler as direct requests.

// EffectKind enumerates the abstract side effects scripts produce.
type EffectKind int

const (
	EffectFetch EffectKind = iota // S = raw URL, Respect = honor ctx blocking
	EffectWrite                   // S = injected markup
	EffectDOM                     // one DOM mutation
)

// Effect is one recorded side effect, in execution order.
type Effect struct {
	Kind    EffectKind
	S       string
	Respect bool
}

// globalRead is one observed dynamic-global read: the value (and presence)
// the recorded execution saw before writing the name itself.
type globalRead struct {
	name string
	v    minijs.Value
	ok   bool
}

// globalWrite is the final value a script left in a global, in first-write
// order.
type globalWrite struct {
	name string
	v    minijs.Value
}

// Outcome is one recorded script execution. cacheable=false entries are
// kept so repeat executions skip the recording bookkeeping.
type Outcome struct {
	cacheable        bool
	needsFixedRandom bool
	ops              int
	effects          []Effect
	reads            []globalRead
	writes           []globalWrite
}

// Ops is the recorded execution's op count.
func (o *Outcome) Ops() int { return o.ops }

// Effects are the recorded side effects for the caller to apply.
func (o *Outcome) Effects() []Effect { return o.effects }

// maxExecEntries bounds the outcome cache the same way the artifact and
// program caches are bounded: on overflow the whole epoch is dropped and
// re-recorded on demand.
const maxExecEntries = 4096

var execCache struct {
	sync.RWMutex
	m map[*minijs.Program]*Outcome
}

func loadOutcome(prog *minijs.Program) *Outcome {
	execCache.RLock()
	ent := execCache.m[prog]
	execCache.RUnlock()
	return ent
}

func storeOutcome(prog *minijs.Program, ent *Outcome) {
	execCache.Lock()
	if execCache.m == nil || len(execCache.m) >= maxExecEntries {
		execCache.m = make(map[*minijs.Program]*Outcome, 256)
	}
	// First recording wins; racing recorders of the same program produce
	// interchangeable entries (replay re-validates reads either way).
	if _, ok := execCache.m[prog]; !ok {
		execCache.m[prog] = ent
	}
	execCache.Unlock()
}

// Exec runs prog on in through the outcome cache. On a validated hit it
// charges the recorded ops, applies the recorded global writes and returns
// the outcome without executing anything; the caller applies its effects.
// Otherwise it returns nil and the error of run, which must execute prog on
// in: with rec == nil for a known non-cacheable script (or a failed
// validation), and with a live recorder on the first sighting, whose
// methods the caller's builtins feed while run executes. Exec must not be
// entered again for the same interpreter from inside run.
func Exec(in *minijs.Interp, prog *minijs.Program, fixedRandom bool, run func(rec *Recorder) error) (*Outcome, error) {
	if ent := loadOutcome(prog); ent != nil {
		if ent.cacheable && ent.replay(in, fixedRandom) {
			return ent, nil
		}
		return nil, run(nil)
	}
	rec := &Recorder{
		in:        in,
		cacheable: true,
		readSeen:  make(map[string]bool, 8),
		written:   make(map[string]bool, 8),
	}
	in.SetGlobalHooks(rec.onRead, rec.onWrite)
	before := in.Ops()
	err := run(rec)
	in.SetGlobalHooks(nil, nil)
	storeOutcome(prog, rec.outcome(in.Ops()-before, err))
	return nil, err
}

// replay applies o's global effects to in if in's current state validates
// against the recorded read set and op budget.
func (o *Outcome) replay(in *minijs.Interp, fixedRandom bool) bool {
	if o.needsFixedRandom && !fixedRandom {
		return false
	}
	for i := range o.reads {
		r := &o.reads[i]
		cur, ok := in.Global(r.name)
		if ok != r.ok {
			return false
		}
		if !ok {
			continue
		}
		if r.v.IsScalar() {
			if !r.v.Equals(cur) {
				return false
			}
		} else if !r.v.SameKind(cur) {
			return false
		}
	}
	if !in.TryChargeOps(o.ops) {
		return false
	}
	for i := range o.writes {
		in.Bind(o.writes[i].name, o.writes[i].v)
	}
	return true
}

// Recorder collects one script execution's outcome while the real run
// proceeds unchanged underneath it. Its methods are no-ops on a nil
// Recorder, so builtins can feed it unconditionally.
type Recorder struct {
	in               *minijs.Interp
	cacheable        bool
	needsFixedRandom bool
	effects          []Effect
	reads            []globalRead
	readSeen         map[string]bool
	written          map[string]bool
	writeOrder       []string
}

// Fetch records a fetch of the raw (unresolved) URL.
func (r *Recorder) Fetch(raw string, respect bool) {
	if r != nil {
		r.effects = append(r.effects, Effect{Kind: EffectFetch, S: raw, Respect: respect})
	}
}

// Write records a document.write of html.
func (r *Recorder) Write(html string) {
	if r != nil {
		r.effects = append(r.effects, Effect{Kind: EffectWrite, S: html})
	}
}

// DOM records one DOM mutation.
func (r *Recorder) DOM() {
	if r != nil {
		r.effects = append(r.effects, Effect{Kind: EffectDOM})
	}
}

// Uncacheable marks the execution as one that must always re-execute.
func (r *Recorder) Uncacheable() {
	if r != nil {
		r.cacheable = false
	}
}

// UsedFixedRandom notes that the script read rand() under FixedRandom, so a
// replay is only valid for an engine that fixes it too.
func (r *Recorder) UsedFixedRandom() {
	if r != nil {
		r.needsFixedRandom = true
	}
}

func (r *Recorder) onRead(name string, v minijs.Value, ok bool) {
	if r.written[name] || r.readSeen[name] {
		return
	}
	r.readSeen[name] = true
	if v.Closure() != nil {
		// Closures are engine-bound; a read of one cannot be validated
		// across interpreters.
		r.cacheable = false
		return
	}
	r.reads = append(r.reads, globalRead{name: name, v: v, ok: ok})
}

func (r *Recorder) onWrite(name string) {
	if !r.written[name] {
		r.written[name] = true
		r.writeOrder = append(r.writeOrder, name)
	}
}

// outcome freezes the recording after a run that took ops steps and ended
// with runErr.
func (r *Recorder) outcome(ops int, runErr error) *Outcome {
	ent := &Outcome{
		cacheable:        r.cacheable && runErr == nil,
		needsFixedRandom: r.needsFixedRandom,
		ops:              ops,
		effects:          r.effects,
		reads:            r.reads,
	}
	for _, name := range r.writeOrder {
		v, ok := r.in.Global(name)
		if !ok || !v.IsScalar() {
			// Deleted (impossible) or engine-bound final value: the write
			// cannot be transplanted into another interpreter.
			ent.cacheable = false
			break
		}
		ent.writes = append(ent.writes, globalWrite{name: name, v: v})
	}
	return ent
}
