package core

import (
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

// quietTriggers disables automatic re-encoding so tests control epochs
// explicitly via ReencodeNow.
var quietTriggers = Triggers{
	NewEdges:       1 << 30,
	UnencodedCalls: 1 << 60,
	CCOps:          1 << 60,
	HotMissSamples: 1 << 60,
}

// ctxOf builds the expected context from function/site names.
func ctxOf(fx *progtest.Fixture, names ...string) Context {
	// names alternate: fn, siteIntoNext, fn, siteIntoNext... simpler:
	// first name is root fn; then pairs (site, fn).
	out := Context{{Site: prog.NoSite, Fn: fx.F(names[0])}}
	for i := 1; i < len(names); i += 2 {
		out = append(out, ContextFrame{Site: fx.S(names[i]), Fn: fx.F(names[i+1])})
	}
	return out
}

// TestSection31WorkedExample reproduces the §3.1 example: with A→C→D
// encoded (maxID = 0) and edge AD newly discovered, the context AD is
// encoded as id = 1 with <0, A, D> on the ccStack, and decodes to AD.
func TestSection31WorkedExample(t *testing.T) {
	fx, b := progtest.Fig2()
	var d *DACCE
	var capAD *Capture

	root := []progtest.Call{
		// Phase 1: discover A→C→D.
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"))),
		// Re-encode from inside a later visit of C (the whole phase-1
		// path has returned by then), so AC and CD become encoded.
		{Site: fx.S("AC"), Target: prog.NoFunc, Hook: func(x prog.Exec) {
			d.ReencodeNow(x, false)
		}},
		// Take edge AD for the first time and capture inside D.
		{Site: fx.S("AD"), Target: prog.NoFunc, Hook: func(x prog.Exec) {
			capAD = d.CaptureTyped(x.(*machine.Thread))
		}},
	}
	runScriptDeferred(t, fx, b, root, Options{Trig: quietTriggers}, machine.Config{}, &d)

	if capAD == nil {
		t.Fatal("capture in D never taken")
	}
	if capAD.Epoch != 1 {
		t.Fatalf("capture epoch = %d, want 1", capAD.Epoch)
	}
	dict := d.Dict(1)
	if dict.MaxID != 0 {
		t.Fatalf("maxID after encoding ACD = %d, want 0", dict.MaxID)
	}
	if capAD.ID != 1 {
		t.Errorf("id in D = %d, want maxID+1 = 1", capAD.ID)
	}
	if len(capAD.CC) != 1 {
		t.Fatalf("ccStack has %d entries, want 1", len(capAD.CC))
	}
	e := capAD.CC[0]
	if e.ID != 0 || e.Site != fx.S("AD") || e.Target != fx.F("D") {
		t.Errorf("ccStack entry = %v, want <0, AD, D>", e)
	}
	ctx, err := d.Decode(capAD)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := ctxOf(fx, "A", "AD", "D")
	if !ctx.Equal(want) {
		t.Errorf("decoded %v, want %v", ctx, want)
	}
}

// runScriptDeferred is runScript for tests whose hooks close over the
// DACCE instance before it exists.
func runScriptDeferred(t *testing.T, fx *progtest.Fixture, b *prog.Builder, root []progtest.Call, opt Options, cfg machine.Config, dp **DACCE) (*DACCE, *machine.RunStats) {
	t.Helper()
	p := b.MustBuild()
	fx.P = p
	sc := progtest.NewScript(p)
	sc.Root = root
	for _, f := range p.Funcs {
		f.Body = sc.Body()
	}
	d := New(p, opt)
	*dp = d
	m := machine.New(p, d, cfg)
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return d, rs
}

// TestFig3IndirectExample reproduces §3.2: context ACEI through an
// indirect call decodes correctly, with the encoding context saved
// before the indirect invocation.
func TestFig3IndirectExample(t *testing.T) {
	fx, b := progtest.Fig3()
	var d *DACCE
	var capI *Capture

	root := []progtest.Call{
		// Discover the direct skeleton: A→B→D, A→C→D, D→F.
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"), progtest.By(fx.S("DF")))),
		// Re-encode, then take the indirect call C→E (first time) and
		// E→I (first time), capturing in I.
		{Site: fx.S("AC"), Target: prog.NoFunc, Hook: func(x prog.Exec) { d.ReencodeNow(x, false) },
			Sub: []progtest.Call{
				progtest.ByT(fx.S("Cind"), fx.F("E"),
					progtest.Call{Site: fx.S("EI"), Target: prog.NoFunc, Hook: func(x prog.Exec) {
						capI = d.CaptureTyped(x.(*machine.Thread))
					}}),
			}},
	}
	runScriptDeferred(t, fx, b, root, Options{Trig: quietTriggers}, machine.Config{}, &d)

	if capI == nil {
		t.Fatal("capture in I never taken")
	}
	maxID := d.Dict(capI.Epoch).MaxID
	if capI.ID <= maxID {
		t.Errorf("id in I = %d not in marker range (maxID %d)", capI.ID, maxID)
	}
	if len(capI.CC) != 2 {
		t.Fatalf("ccStack %v, want the AC sub-path entry and the C→E entry", capI.CC)
	}
	ctx, err := d.Decode(capI)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := ctxOf(fx, "A", "AC", "C", "Cind", "E", "EI", "I")
	if !ctx.Equal(want) {
		t.Errorf("decoded %v, want %v", ctx, want)
	}
}

// TestFig5RecursionExample reproduces §3.3's worked example: the
// context ADACDAD is encoded as id = 1 with the four entries
// <0,A,D>, <1,D,A>, <1,D,A>, <1,A,D> on the ccStack when AD and DA are
// unencoded, and decodes back to ADACDAD.
func TestFig5RecursionExample(t *testing.T) {
	fx, b := progtest.Fig5()
	var d *DACCE
	var capD *Capture

	// Phase 1 discovers AC and CD; after the re-encode they are encoded
	// (both code 0, maxID 0). Then the exact path A-AD→D-DA→A-AC→C-CD→
	// D-DA→A-AD→D is driven with a capture in the final D.
	root := []progtest.Call{
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"))),
		{Site: fx.S("AC"), Target: prog.NoFunc, Hook: func(x prog.Exec) { d.ReencodeNow(x, false) }},
		progtest.By(fx.S("AD"), // A→D
			progtest.By(fx.S("DA"), // D→A
				progtest.By(fx.S("AC"), // A→C
					progtest.By(fx.S("CD"), // C→D
						progtest.By(fx.S("DA"), // D→A
							progtest.Call{Site: fx.S("AD"), Target: prog.NoFunc, // A→D
								Hook: func(x prog.Exec) {
									capD = d.CaptureTyped(x.(*machine.Thread))
								}}))))),
	}
	runScriptDeferred(t, fx, b, root, Options{Trig: quietTriggers}, machine.Config{}, &d)

	if capD == nil {
		t.Fatal("capture never taken")
	}
	if capD.ID != 1 {
		t.Errorf("id = %d, want 1", capD.ID)
	}
	wantCC := []CCEntry{
		{ID: 0, Site: fx.S("AD"), Target: fx.F("D")},
		{ID: 1, Site: fx.S("DA"), Target: fx.F("A")},
		{ID: 1, Site: fx.S("DA"), Target: fx.F("A")},
		{ID: 1, Site: fx.S("AD"), Target: fx.F("D")},
	}
	if len(capD.CC) != len(wantCC) {
		t.Fatalf("ccStack %v, want 4 entries", capD.CC)
	}
	for i, want := range wantCC {
		got := capD.CC[i]
		if got.ID != want.ID || got.Site != want.Site || got.Target != want.Target || got.Count != 0 {
			t.Errorf("ccStack[%d] = %v, want %v", i, got, want)
		}
	}
	ctx, err := d.Decode(capD)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := ctxOf(fx, "A", "AD", "D", "DA", "A", "AC", "C", "CD", "D", "DA", "A", "AD", "D")
	if !ctx.Equal(want) {
		t.Errorf("decoded %v, want %v", ctx, want)
	}
}

// TestEveryCallSampledDecodes runs the Fig. 3 program through several
// mixed paths with a sample at every call and cross-validates every
// decode against the shadow stack (the paper's §6.1 validation).
func TestEveryCallSampledDecodes(t *testing.T) {
	fx, b := progtest.Fig3()
	var d *DACCE
	paths := []progtest.Call{
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AC"),
			progtest.By(fx.S("CD"), progtest.By(fx.S("DF"))),
			progtest.ByT(fx.S("Cind"), fx.F("E"), progtest.By(fx.S("EI"))),
			progtest.ByT(fx.S("Cind"), fx.F("I"))),
		{Site: fx.S("AB"), Target: prog.NoFunc, Hook: func(x prog.Exec) { d.ReencodeNow(x, false) },
			Sub: []progtest.Call{progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))}},
		progtest.By(fx.S("AC"),
			progtest.ByT(fx.S("Cind"), fx.F("E"), progtest.By(fx.S("EI"))),
			progtest.By(fx.S("CD"))),
	}
	_, rs := runScriptDeferred(t, fx, b, paths, Options{Trig: quietTriggers}, machine.Config{SampleEvery: 1}, &d)

	if len(rs.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", s.Seq, err)
		}
		want := ShadowContext(nil, s.Shadow)
		if !ctx.Equal(want) {
			t.Errorf("sample %d: decoded %v, want %v (capture %v)", s.Seq, ctx, want, s.Capture)
		}
	}
}
