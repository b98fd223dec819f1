// Quickstart: build a small program, run it under the DACCE encoder,
// capture calling contexts while it runs, and decode them back into
// call paths — including a context captured before a re-encoding, which
// stays decodable through its epoch's dictionary.
package main

import (
	"fmt"
	"log"

	"dacce"
)

func main() {
	// A small program: main calls parse and eval; eval recurses through
	// reduce and calls apply through a function pointer.
	b := dacce.NewBuilder()
	mainF := b.Func("main")
	parse := b.Func("parse")
	eval := b.Func("eval")
	reduce := b.Func("reduce")
	applyA := b.Func("apply_add")
	applyB := b.Func("apply_mul")

	mParse := b.CallSite(mainF, parse)
	mEval := b.CallSite(mainF, eval)
	evRed := b.CallSite(eval, reduce)
	redEv := b.CallSite(reduce, eval) // recursion: eval ⇄ reduce
	evApply := b.IndirectSite(eval, applyA, applyB)

	var enc *dacce.Encoder
	var captured []*dacce.Capture

	capture := func(x dacce.Exec) {
		captured = append(captured, enc.CaptureTyped(x.(*dacce.Thread)))
	}

	b.Body(mainF, func(x dacce.Exec) {
		x.Call(mParse, dacce.NoFunc)
		x.Call(mEval, dacce.NoFunc)
	})
	b.Body(parse, func(x dacce.Exec) {
		x.Work(100)
		capture(x)
	})
	b.Body(eval, func(x dacce.Exec) {
		x.Work(50)
		if x.Depth() < 6 {
			x.Call(evRed, dacce.NoFunc)
		}
		target := applyA
		if x.CallCount()%2 == 0 {
			target = applyB
		}
		x.Call(evApply, target)
	})
	b.Body(reduce, func(x dacce.Exec) {
		x.Work(25)
		x.Call(redEv, dacce.NoFunc)
	})
	b.Body(applyA, func(x dacce.Exec) { capture(x) })
	b.Body(applyB, func(x dacce.Exec) { capture(x) })

	p := b.MustBuild()
	enc = dacce.NewEncoder(p, dacce.Options{})
	m := dacce.NewMachine(p, enc, dacce.MachineConfig{})
	if _, err := m.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run complete: %d contexts captured, call graph has %d nodes / %d edges, gTS=%d\n\n",
		len(captured), enc.Stats().Nodes, enc.Stats().Edges, enc.Stats().GTS)

	for i, c := range captured {
		ctx, err := enc.Decode(c)
		if err != nil {
			log.Fatalf("decode capture %d: %v", i, err)
		}
		fmt.Printf("capture %2d  epoch=%d id=%-4d ccStack=%d entries\n", i, c.Epoch, c.ID, len(c.CC))
		fmt.Printf("            %s\n", ctx.Pretty(p))
	}

	// Re-encode explicitly and show that older captures still decode
	// through their epoch's dictionary (paper Fig. 6).
	enc.ReencodeNow(nil, false)
	fmt.Printf("\nafter forced re-encoding (epoch now %d):\n", enc.Epoch())
	ctx, err := enc.Decode(captured[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture 0 (epoch %d) still decodes: %s\n", captured[0].Epoch, ctx.Pretty(p))
}
