package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"dacce/internal/core"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// Every input is generated from the run's seed. The two programs are
// their Table-1 profiles, structure seed included, so every seed runs
// the same program; the seed drives the program's run-time choices
// (the machines' per-thread PRNGs), hence the call traces, the encoder
// states they produce and the dacced corpus, which is a deterministic
// single-threaded run of the phased program. It also wires the epochs
// graph and orders its deltas. Keeping the program fixed keeps the
// workloads' cost comparable from seed to seed: a reshaped program
// changes context depth, and with it decode cost, by up to 2.5x.

// derive mixes the run seed with a salt into an independent stream
// seed (splitmix64 finalizer over seed ^ FNV-1a(salt)).
func derive(seed uint64, salt string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(salt); i++ {
		h ^= uint64(salt[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// steadyProfile is 403.gcc's Table-1 profile pinned to one phase with
// two application threads; calls is one round's budget.
func steadyProfile(calls int64) workload.Profile {
	pr, ok := workload.ByName("403.gcc")
	if !ok {
		panic("perfbench: 403.gcc profile missing")
	}
	pr.Threads = 2
	pr.Phases = 1
	pr.TotalCalls = calls
	return pr
}

// phasedProfile is 483.xalancbmk's Table-1 profile with its phases.
func phasedProfile(threads int, calls int64) workload.Profile {
	pr, ok := workload.ByName("483.xalancbmk")
	if !ok {
		panic("perfbench: 483.xalancbmk profile missing")
	}
	pr.Threads = threads
	pr.TotalCalls = calls
	return pr
}

// machineSeed is the per-thread PRNG seed a workload's machines run
// with.
func machineSeed(seed uint64, workload string) uint64 {
	return derive(seed, workload) | 1 // 0 would mean "the profile's default"
}

// epochsGraph is the pause suite's staged topology: main calls every
// function of a caller tier, each caller owns the direct sites of a
// slice of the leaf tier, and reserved direct sites — undiscovered at
// staging — target existing leaves, so each delta adds exactly delta
// new leaf edges. The seed permutes which caller owns which leaf and
// which caller and leaf each reserved site joins.
type epochsGraph struct {
	p      *prog.Program
	base   []core.Discovery
	deltas [][]core.Discovery
}

func buildEpochsGraph(seed uint64, edges, delta, rounds int) (*epochsGraph, error) {
	const callers = 256
	leaves := edges - callers
	if leaves < callers {
		return nil, fmt.Errorf("epochs: %d edges leave too small a leaf tier", edges)
	}
	rng := rand.New(rand.NewPCG(derive(seed, "epochs"), 0))
	b := prog.NewBuilder()
	mainFn := b.Func("main")
	g := &epochsGraph{}
	callerFns := make([]prog.FuncID, callers)
	for i := range callerFns {
		callerFns[i] = b.Func(fmt.Sprintf("c%d", i))
		g.base = append(g.base, core.Discovery{Site: b.CallSite(mainFn, callerFns[i]), Fn: callerFns[i], Freq: 1})
	}
	leafFns := make([]prog.FuncID, leaves)
	owner := rng.Perm(leaves)
	for i := range leafFns {
		leafFns[i] = b.Func(fmt.Sprintf("l%d", i))
		caller := callerFns[owner[i]%callers]
		g.base = append(g.base, core.Discovery{Site: b.CallSite(caller, leafFns[i]), Fn: leafFns[i], Freq: 1})
	}
	for r := 0; r < rounds; r++ {
		batch := make([]core.Discovery, delta)
		for i := range batch {
			caller := callerFns[rng.IntN(callers)]
			leaf := leafFns[rng.IntN(leaves)]
			batch[i] = core.Discovery{Site: b.CallSite(caller, leaf), Fn: leaf, Freq: 1}
		}
		g.deltas = append(g.deltas, batch)
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.p = p
	return g, nil
}

// digest is a running SHA-256 over the values that make up an input.
type digest struct{ b []byte }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		d.b = binary.AppendVarint(d.b, v)
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.b)
	return hex.EncodeToString(s[:8])
}

// programDigest hashes a program's shape: every function's module and
// every site's caller, kind and static target.
func programDigest(p *prog.Program) string {
	var d digest
	d.add(int64(p.Entry), int64(p.NumFuncs()), int64(p.NumSites()))
	for _, f := range p.Funcs {
		d.add(int64(f.Module))
	}
	for _, s := range p.Sites {
		d.add(int64(s.Caller), int64(s.Kind), int64(s.Target))
	}
	return d.sum()
}

func (g *epochsGraph) digest() string {
	var d digest
	d.add(int64(g.p.NumSites()))
	for _, x := range g.base {
		d.add(int64(x.Site), int64(x.Fn))
	}
	for _, batch := range g.deltas {
		for _, x := range batch {
			d.add(int64(x.Site), int64(x.Fn))
		}
	}
	return d.sum()
}
