package main

import (
	"math/rand/v2"
	"time"
)

// Everything a run varies by seed comes from here, one independent
// stream per purpose, so that a seed fixes the whole operation
// sequence and arrival schedule.
const (
	streamColdOrder = iota + 1
	streamEdits
	streamDhpfdOps
	streamArrivals
	streamExecOrder
)

// execOrder is the exec stage's cell sequence.
func execOrder(seed uint64, cells, n int) []int {
	return roundRobin(rng(seed, streamExecOrder), cells, n)
}

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// roundRobin returns n picks from k items: seeded permutations of
// 0..k-1 back to back, so each item gets the same share.
func roundRobin(r *rand.Rand, k, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range r.Perm(k) {
			if len(out) < n {
				out = append(out, i)
			}
		}
	}
	return out
}

// distinct returns n distinct values from lo..lo+span-1 in seeded
// order (n ≤ span).
func distinct(r *rand.Rand, lo, span, n int) []int {
	p := append([]int(nil), r.Perm(span)[:n]...) // a copy: the permutation is not kept alive
	for i := range p {
		p[i] += lo
	}
	return p
}

// coldOrder is the compile stage's program sequence.
func coldOrder(seed uint64, programs, n int) []int {
	return roundRobin(rng(seed, streamColdOrder), programs, n)
}

// editConstants are the compile stage's distinct edit constants
// (1..maxEdits, see warmEdit).
func editConstants(seed uint64, n int) []int {
	return distinct(rng(seed, streamEdits), 1, maxEdits, n)
}

// dhpfd request classes.
const (
	classWarm    = "warm"
	classCold    = "cold"
	classEdit    = "edit"
	classRestart = "restart"
	classRun     = "run"
)

var dhpfdClasses = []string{classWarm, classCold, classEdit, classRestart, classRun}

// dhpfdBlock is the request mix in a block of 20 consecutive requests:
// 55% warm hits, 10% cold compiles, 15% edits, 10% restart-warm hits,
// 10% runs.  Fixing the counts per block, not drawing each class at
// random, keeps the mix of every run and every stretch of a run equal.
// Fast classes (warm, restart: ~2 ms) are 65% of requests so that
// req_ms.p50 falls inside their mode; at 55% it sat on the edge between
// them and the 15–35 ms classes and moved by half between seeds.
var dhpfdBlock = map[string]int{classWarm: 11, classCold: 2, classEdit: 3, classRestart: 2, classRun: 2}

const dhpfdBlockLen = 20

// request is one dhpfd operation: its class and its argument — a hot
// set index (warm), an N parameter (cold), an edit constant (edit), a
// restart pool index (restart) or a code index (run).
type request struct {
	Class string
	Arg   int
}

// dhpfdPlan returns the seeded request sequence of n requests (a
// multiple of dhpfdBlockLen).  Cold N values and edit constants are
// distinct across the plan; restart indices count up, so each primed
// fingerprint is served once.
func dhpfdPlan(seed uint64, n, hotSet, codes int) []request {
	r := rng(seed, streamDhpfdOps)
	blocks := n / dhpfdBlockLen
	coldN := distinct(r, coldNLo, coldNSpan, blocks*dhpfdBlock[classCold])
	edits := distinct(r, 1, maxEdits, blocks*dhpfdBlock[classEdit])
	var classes []string
	for _, c := range dhpfdClasses {
		for i := 0; i < dhpfdBlock[c]; i++ {
			classes = append(classes, c)
		}
	}
	// Warm and run requests cycle through their programs in seeded
	// round-robin, so each program's share is the same in every run.
	hot := roundRobin(r, hotSet, blocks*dhpfdBlock[classWarm])
	runs := roundRobin(r, codes, blocks*dhpfdBlock[classRun])
	out := make([]request, 0, n)
	restart := 0
	for b := 0; b < blocks; b++ {
		for _, i := range r.Perm(len(classes)) {
			q := request{Class: classes[i]}
			switch q.Class {
			case classWarm:
				q.Arg, hot = hot[0], hot[1:]
			case classCold:
				q.Arg, coldN = coldN[0], coldN[1:]
			case classEdit:
				q.Arg, edits = edits[0], edits[1:]
			case classRestart:
				q.Arg = restart
				restart++
			case classRun:
				q.Arg, runs = runs[0], runs[1:]
			}
			out = append(out, q)
		}
	}
	return out
}

// arrivals returns the open loop's due times for d at rate per second:
// the i-th request is due at a seeded uniform point of the i-th slot
// of length 1/rate.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := rng(seed, streamArrivals)
	var out []time.Duration
	for i := 0; ; i++ {
		due := time.Duration((float64(i) + r.Float64()) / rate * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
