package dacce_test

import (
	"fmt"

	"dacce"
)

// Example builds a three-function program, runs it under the DACCE
// encoder and decodes a captured context.
func Example() {
	b := dacce.NewBuilder()
	mainF := b.Func("main")
	parse := b.Func("parse")
	emit := b.Func("emit")
	sp := b.CallSite(mainF, parse)
	se := b.CallSite(parse, emit)

	var enc *dacce.Encoder
	var captured *dacce.Capture
	b.Body(mainF, func(x dacce.Exec) { x.Call(sp, dacce.NoFunc) })
	b.Body(parse, func(x dacce.Exec) { x.Call(se, dacce.NoFunc) })
	b.Body(emit, func(x dacce.Exec) {
		captured = enc.CaptureTyped(x.(*dacce.Thread))
	})

	p := b.MustBuild()
	enc = dacce.NewEncoder(p, dacce.Options{})
	m := dacce.NewMachine(p, enc, dacce.MachineConfig{})
	if _, err := m.Run(); err != nil {
		fmt.Println("run failed:", err)
		return
	}
	ctx, err := enc.Decode(captured)
	if err != nil {
		fmt.Println("decode failed:", err)
		return
	}
	fmt.Println(ctx.Pretty(p))
	// Output: main → parse → emit
}

// ExampleEncoder_ReencodeNow shows that contexts captured before a
// re-encoding stay decodable through their epoch's dictionary.
func ExampleEncoder_ReencodeNow() {
	b := dacce.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	sf := b.CallSite(mainF, f)

	var enc *dacce.Encoder
	var old *dacce.Capture
	b.Body(mainF, func(x dacce.Exec) { x.Call(sf, dacce.NoFunc) })
	b.Body(f, func(x dacce.Exec) { old = enc.CaptureTyped(x.(*dacce.Thread)) })
	p := b.MustBuild()
	enc = dacce.NewEncoder(p, dacce.Options{})
	m := dacce.NewMachine(p, enc, dacce.MachineConfig{})
	if _, err := m.Run(); err != nil {
		fmt.Println(err)
		return
	}

	enc.ReencodeNow(nil, false) // gTimeStamp advances; old epoch's dictionary is retained
	ctx, err := enc.Decode(old)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("epoch %d capture still decodes: %s\n", old.Epoch, ctx.Pretty(p))
	// Output: epoch 0 capture still decodes: main → f
}

// ExampleCCProfile aggregates decoded contexts into a hot-path ranking.
func ExampleCCProfile() {
	b := dacce.NewBuilder()
	mainF := b.Func("main")
	hot := b.Func("hot")
	cold := b.Func("cold")
	sh := b.CallSite(mainF, hot)
	sc := b.CallSite(mainF, cold)

	var enc *dacce.Encoder
	var caps []*dacce.Capture
	grab := func(x dacce.Exec) { caps = append(caps, enc.CaptureTyped(x.(*dacce.Thread))) }
	b.Body(mainF, func(x dacce.Exec) {
		for i := 0; i < 9; i++ {
			x.Call(sh, dacce.NoFunc)
		}
		x.Call(sc, dacce.NoFunc)
	})
	b.Body(hot, grab)
	b.Body(cold, grab)
	p := b.MustBuild()
	enc = dacce.NewEncoder(p, dacce.Options{})
	m := dacce.NewMachine(p, enc, dacce.MachineConfig{})
	if _, err := m.Run(); err != nil {
		fmt.Println(err)
		return
	}

	prof := dacce.NewCCProfile(p)
	for _, c := range caps {
		ctx, err := enc.Decode(c)
		if err != nil {
			fmt.Println(err)
			return
		}
		prof.Add(ctx)
	}
	for _, h := range prof.Hot(2) {
		fmt.Printf("%3.0f%% %s\n", 100*h.Frac, h.Context.Pretty(p))
	}
	// Output:
	//  90% main → hot
	//  10% main → cold
}

// ExampleBenchmarkByName runs a paper benchmark under the encoder.
func ExampleBenchmarkByName() {
	pr, ok := dacce.BenchmarkByName("429.mcf")
	if !ok {
		fmt.Println("unknown benchmark")
		return
	}
	pr.TotalCalls = 10_000
	w, err := dacce.BuildWorkload(pr)
	if err != nil {
		fmt.Println(err)
		return
	}
	enc := dacce.NewEncoder(w.P, dacce.Options{})
	m := dacce.NewMachine(w.P, enc, dacce.MachineConfig{Seed: pr.Seed + 1, DropSamples: true})
	if _, err := m.Run(); err != nil {
		fmt.Println(err)
		return
	}
	st := enc.Stats()
	fmt.Printf("discovered %d functions, %d edges\n", st.Nodes, st.Edges)
	// Output: discovered 11 functions, 12 edges
}
