package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		ok   bool
	}{
		{"nil plan", nil, true},
		{"empty plan", &Plan{}, true},
		{"on-hit entry", &Plan{Entries: []Entry{On(SiteFMPass, KindPanic, 1)}}, true},
		{"prob entry", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindDelay, Prob: 0.5, Start: AnyStart}}}, true},
		{"unregistered site", &Plan{Entries: []Entry{On("made.up", KindPanic, 1)}}, false},
		{"unknown kind", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: Kind(99), OnHit: 1}}}, false},
		{"no trigger", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindPanic}}}, false},
		{"both triggers", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindPanic, OnHit: 1, Prob: 0.5}}}, false},
		{"prob out of range", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindPanic, Prob: 1.0}}}, false},
		{"negative delay", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindDelay, OnHit: 1, Delay: -time.Second}}}, false},
		{"start below AnyStart", &Plan{Entries: []Entry{{Site: SiteFMPass, Kind: KindPanic, OnHit: 1, Start: -2}}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestNilInjectorIsOff(t *testing.T) {
	var p *Plan
	if in := p.NewInjector(0); in != nil {
		t.Fatal("nil plan must yield a nil injector")
	}
	var in *Injector
	if got := in.Fired(); got != 0 {
		t.Fatalf("nil injector Fired() = %d", got)
	}
}

func TestStartFiltering(t *testing.T) {
	p := &Plan{Entries: []Entry{OnStart(SiteFMPass, KindCancel, 1, 2)}}
	if in := p.NewInjector(0); in != nil {
		t.Fatal("entry restricted to start 2 must not arm start 0")
	}
	in := p.NewInjector(2)
	if in == nil {
		t.Fatal("entry restricted to start 2 must arm start 2")
	}
	if act := in.Fire(SiteFMPass); act != ActCancel {
		t.Fatalf("Fire = %v, want ActCancel", act)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestOnHitTriggersExactlyOnce(t *testing.T) {
	p := &Plan{Entries: []Entry{On(SiteCoarsenMatch, KindCorrupt, 3)}}
	in := p.NewInjector(0)
	for hit := 1; hit <= 5; hit++ {
		act := in.Fire(SiteCoarsenMatch)
		want := ActNone
		if hit == 3 {
			want = ActCorrupt
		}
		if act != want {
			t.Fatalf("hit %d: Fire = %v, want %v", hit, act, want)
		}
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestHitCountersArePerSite(t *testing.T) {
	p := &Plan{Entries: []Entry{On(SiteFMPass, KindCancel, 2)}}
	in := p.NewInjector(0)
	// Hits at other sites must not advance fm.pass's counter.
	in.Fire(SiteCoarsenMatch)
	in.Fire(SiteCoreProject)
	if act := in.Fire(SiteFMPass); act != ActNone {
		t.Fatalf("first fm.pass hit fired: %v", act)
	}
	if act := in.Fire(SiteFMPass); act != ActCancel {
		t.Fatalf("second fm.pass hit: %v, want ActCancel", act)
	}
}

func TestPanicValue(t *testing.T) {
	p := &Plan{Entries: []Entry{On(SiteKwayRefine, KindPanic, 1)}}
	in := p.NewInjector(0)
	defer func() {
		r := recover()
		f, ok := r.(*Fault)
		if !ok {
			t.Fatalf("panic value %T, want *Fault", r)
		}
		if f.Site != SiteKwayRefine || f.Hit != 1 {
			t.Fatalf("bad fault: %v", f)
		}
		if in.Fired() != 1 {
			t.Fatalf("Fired() = %d, want 1 (counted before unwinding)", in.Fired())
		}
	}()
	in.Fire(SiteKwayRefine)
	t.Fatal("Fire did not panic")
}

func TestProbDeterminism(t *testing.T) {
	p := &Plan{Seed: 17, Entries: []Entry{{Site: SiteFMPass, Kind: KindCancel, Prob: 0.5, Start: AnyStart}}}
	run := func(start int) string {
		in := p.NewInjector(start)
		var b strings.Builder
		for i := 0; i < 32; i++ {
			if in.Fire(SiteFMPass) == ActNone {
				b.WriteByte('0')
			} else {
				b.WriteByte('1')
			}
		}
		return b.String()
	}
	if a, b := run(3), run(3); a != b {
		t.Fatalf("same start diverged: %s vs %s", a, b)
	}
	// The per-start streams are pinned bit for bit: a chaos plan must
	// trigger at the same hits in every build.
	for _, c := range []struct {
		start int
		want  string
	}{
		{0, "10111010001000010010100011110110"},
		{3, "01111011010010101101111011100101"},
	} {
		if got := run(c.start); got != c.want {
			t.Errorf("start %d stream %s, want %s", c.start, got, c.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	e, err := ParseSpec("coarsen.match:corrupt:2")
	if err != nil {
		t.Fatal(err)
	}
	if e.Site != SiteCoarsenMatch || e.Kind != KindCorrupt || e.OnHit != 2 || e.Start != AnyStart {
		t.Fatalf("bad entry: %+v", e)
	}
	e, err = ParseSpec("core.rebalance:delay:p0.5:3")
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindDelay || e.Prob != 0.5 || e.Start != 3 {
		t.Fatalf("bad entry: %+v", e)
	}
	for _, bad := range []string{
		"", "fm.pass", "fm.pass:panic", "made.up:panic:1", "fm.pass:explode:1",
		"fm.pass:panic:0", "fm.pass:panic:p1.5", "fm.pass:panic:1:-1", "fm.pass:panic:1:2:3",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}

func TestAllSitesRegistered(t *testing.T) {
	if len(AllSites) == 0 {
		t.Fatal("no registered sites")
	}
	seen := make(map[Site]bool)
	for _, s := range AllSites {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
		if !ValidSite(s) {
			t.Fatalf("registered site %q not valid", s)
		}
	}
	if ValidSite("made.up") {
		t.Fatal("unregistered site accepted")
	}
}
