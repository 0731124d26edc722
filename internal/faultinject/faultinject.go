// Package faultinject is a deterministic fault-injection registry for
// the multilevel pipeline. Named sites (see sites.go) are instrumented
// throughout internal/coarsen, internal/fm, internal/kway and
// internal/core; a seeded Plan decides, per site, whether the Nth hit
// (or a seeded coin flip per hit) injects a fault: a panic, a
// synthetic cancellation, a delay, or a corrupted intermediate
// solution. The chaos suite uses it to prove that the recovery paths
// introduced by the robustness layer actually work.
//
// Determinism contract: an Injector is derived from (Plan.Seed, start
// index) and owns its hit counters and rng, so the same plan injects
// the same faults at the same sites run after run, regardless of how
// many starts execute concurrently.
//
// Production overhead: a nil *Injector is the off state. Every
// instrumented site compiles to a single pointer check
// (`if inj != nil { ... }`), so a nil plan costs nothing measurable.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Site names one instrumented code location. The full set lives in
// sites.go (AllSites); Plan.Validate rejects unregistered names.
type Site string

// Kind is the fault injected when an entry triggers.
type Kind int

const (
	// KindPanic panics with a *Fault value, exercising the Guard
	// recovery paths.
	KindPanic Kind = iota
	// KindCancel makes the site behave as if the context had just been
	// cancelled (the engines' cooperative-stop paths), without touching
	// the caller's real context.
	KindCancel
	// KindDelay sleeps for Entry.Delay (default 1ms), exercising
	// deadline and timeout handling.
	KindDelay
	// KindCorrupt perturbs the intermediate solution at the site —
	// well-formed but wrong — exercising the audit layer.
	KindCorrupt
)

// Kinds lists every fault kind, for sweep-style tests.
var Kinds = []Kind{KindPanic, KindCancel, KindDelay, KindCorrupt}

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindCancel:
		return "cancel"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses the textual kind names used by the CLI -chaos flag.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return KindPanic, nil
	case "cancel":
		return KindCancel, nil
	case "delay":
		return KindDelay, nil
	case "corrupt":
		return KindCorrupt, nil
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q (want panic, cancel, delay, or corrupt)", s)
}

// Action is what an instrumented site must do after calling Fire.
// Panics and delays are handled inside Fire itself; the remaining
// kinds need site-specific cooperation.
type Action int

const (
	// ActNone: no fault; proceed normally.
	ActNone Action = iota
	// ActCancel: behave as if cancellation had just been observed.
	ActCancel
	// ActCorrupt: perturb the local intermediate solution.
	ActCorrupt
)

// AnyStart makes an Entry apply to every start of a multi-start run.
const AnyStart = -1

// Entry arms one fault: at Site, the Kind fires on the OnHit-th hit
// (1-based), or — when OnHit is 0 — on any hit with probability Prob
// under the injector's seeded rng.
type Entry struct {
	Site Site
	Kind Kind
	// OnHit triggers on exactly the Nth hit of Site (1-based). Exactly
	// one of OnHit / Prob must be set.
	OnHit int
	// Prob triggers each hit independently with this probability,
	// drawn from the injector's seeded rng. Must be in (0,1).
	Prob float64
	// Delay is the sleep for KindDelay; 0 means 1ms.
	Delay time.Duration
	// Start restricts the entry to one 0-based start index of a
	// multi-start run; AnyStart (-1) applies it to every start.
	// NOTE: the zero value restricts to start 0 — build entries with
	// On/OnStart or set Start explicitly.
	Start int
}

// On returns an Entry firing Kind at the nth hit of site in every
// start.
func On(site Site, kind Kind, nth int) Entry {
	return Entry{Site: site, Kind: kind, OnHit: nth, Start: AnyStart}
}

// OnStart is On restricted to the given 0-based start index.
func OnStart(site Site, kind Kind, nth, start int) Entry {
	return Entry{Site: site, Kind: kind, OnHit: nth, Start: start}
}

// Plan is an immutable fault-injection plan: a seed plus the armed
// entries. A nil *Plan is the off state.
type Plan struct {
	// Seed drives the probabilistic triggers; the per-start injector
	// seed is derived from (Seed, start).
	Seed    int64
	Entries []Entry
}

// Validate rejects malformed plans: unregistered sites, unknown
// kinds, missing or conflicting triggers, out-of-range fields.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Entries {
		if !ValidSite(e.Site) {
			return fmt.Errorf("faultinject: entry %d: unregistered site %q", i, e.Site)
		}
		switch e.Kind {
		case KindPanic, KindCancel, KindDelay, KindCorrupt:
		default:
			return fmt.Errorf("faultinject: entry %d: unknown kind %d", i, int(e.Kind))
		}
		if e.OnHit < 0 {
			return fmt.Errorf("faultinject: entry %d: negative OnHit %d", i, e.OnHit)
		}
		if e.Prob < 0 || e.Prob >= 1 {
			return fmt.Errorf("faultinject: entry %d: probability %v outside [0,1)", i, e.Prob)
		}
		if (e.OnHit == 0) == (e.Prob == 0) {
			return fmt.Errorf("faultinject: entry %d: exactly one of OnHit and Prob must be set", i)
		}
		if e.Delay < 0 {
			return fmt.Errorf("faultinject: entry %d: negative delay %v", i, e.Delay)
		}
		if e.Start < AnyStart {
			return fmt.Errorf("faultinject: entry %d: start index %d < -1", i, e.Start)
		}
	}
	return nil
}

// NewInjector derives the injector for the given 0-based start index.
// It returns nil — the zero-overhead off state — for a nil plan or
// when no entry applies to this start.
func (p *Plan) NewInjector(start int) *Injector {
	if p == nil || len(p.Entries) == 0 {
		return nil
	}
	var es []Entry
	for _, e := range p.Entries {
		if e.Start == AnyStart || e.Start == start {
			es = append(es, e)
		}
	}
	if len(es) == 0 {
		return nil
	}
	return &Injector{
		entries: es,
		hits:    make(map[Site]int),
		rng:     rand.New(rand.NewSource(mixSeed(p.Seed, start))),
	}
}

// mixSeed derives an independent rng stream per (seed, start) with a
// splitmix64-style finalizer.
func mixSeed(seed int64, start int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(start+1) + 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Fault is the panic value of KindPanic; Guard converts it into a
// *core.PanicError like any other invariant panic.
type Fault struct {
	Site Site
	Hit  int
}

func (f *Fault) String() string {
	return fmt.Sprintf("injected fault at %s (hit %d)", f.Site, f.Hit)
}

// Injector applies one start's share of a Plan. It is owned by a
// single goroutine and must not be shared.
type Injector struct {
	entries []Entry
	hits    map[Site]int
	rng     *rand.Rand
	fired   int
}

// Fire records a hit at site and applies the first triggering entry:
// KindPanic panics with a *Fault, KindDelay sleeps and continues, and
// KindCancel / KindCorrupt return the action the site must emulate.
// Receivers must treat a nil *Injector as "never fires" by guarding
// the call with a pointer check.
func (in *Injector) Fire(site Site) Action {
	in.hits[site]++
	n := in.hits[site]
	for i := range in.entries {
		e := &in.entries[i]
		if e.Site != site {
			continue
		}
		triggered := false
		if e.OnHit > 0 {
			triggered = n == e.OnHit
		} else {
			triggered = in.rng.Float64() < e.Prob
		}
		if !triggered {
			continue
		}
		in.fired++
		switch e.Kind {
		case KindPanic:
			panic(&Fault{Site: site, Hit: n})
		case KindDelay:
			d := e.Delay
			if d <= 0 {
				d = time.Millisecond
			}
			time.Sleep(d)
		case KindCancel:
			return ActCancel
		case KindCorrupt:
			return ActCorrupt
		}
	}
	return ActNone
}

// Fired reports how many entries have triggered so far (delays and
// corruptions included; a panic is counted before it unwinds).
func (in *Injector) Fired() int {
	if in == nil {
		return 0
	}
	return in.fired
}

// ParseSpec parses one CLI fault spec of the form
//
//	site:kind:n[:start]
//
// where site is a registered site name, kind is panic|cancel|delay|
// corrupt, n is the 1-based hit number to trigger on (or p0.25 for a
// per-hit probability), and the optional start restricts the fault to
// one 0-based start index.
func ParseSpec(spec string) (Entry, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return Entry{}, fmt.Errorf("faultinject: spec %q: want site:kind:n[:start]", spec)
	}
	e := Entry{Site: Site(parts[0]), Start: AnyStart}
	if !ValidSite(e.Site) {
		return Entry{}, fmt.Errorf("faultinject: spec %q: unregistered site %q (known: %s)", spec, parts[0], siteList())
	}
	k, err := ParseKind(parts[1])
	if err != nil {
		return Entry{}, fmt.Errorf("faultinject: spec %q: %w", spec, err)
	}
	e.Kind = k
	if rest, ok := strings.CutPrefix(parts[2], "p"); ok {
		p, err := strconv.ParseFloat(rest, 64)
		if err != nil || p <= 0 || p >= 1 {
			return Entry{}, fmt.Errorf("faultinject: spec %q: probability %q outside (0,1)", spec, parts[2])
		}
		e.Prob = p
	} else {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 1 {
			return Entry{}, fmt.Errorf("faultinject: spec %q: hit number %q must be a positive integer or pX.Y", spec, parts[2])
		}
		e.OnHit = n
	}
	if len(parts) == 4 {
		s, err := strconv.Atoi(parts[3])
		if err != nil || s < 0 {
			return Entry{}, fmt.Errorf("faultinject: spec %q: start index %q must be a non-negative integer", spec, parts[3])
		}
		e.Start = s
	}
	return e, nil
}

// ParseSpecs builds a validated Plan from CLI specs; nil when specs is
// empty.
func ParseSpecs(specs []string, seed int64) (*Plan, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, s := range specs {
		e, err := ParseSpec(s)
		if err != nil {
			return nil, err
		}
		p.Entries = append(p.Entries, e)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func siteList() string {
	names := make([]string, len(AllSites))
	for i, s := range AllSites {
		names[i] = string(s)
	}
	return strings.Join(names, ", ")
}
