package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"dhpf"
	"dhpf/internal/spmd"
)

// Correctness gates.  Each returns a non-nil error for a violation,
// which the caller counts as one failed operation.

// digestGate pins the first digest seen for each key and rejects any
// later digest that differs: repeats of one source, timed steps of one
// cell, and responses for one fingerprint must all be identical.
type digestGate struct {
	mu    sync.Mutex
	first map[string]string
}

func newDigestGate() *digestGate { return &digestGate{first: map[string]string{}} }

// pin records want as key's digest without checking it.
func (g *digestGate) pin(key, want string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.first[key] = want
}

func (g *digestGate) check(key, digest string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.first[key]
	if !ok {
		g.first[key] = digest
		return nil
	}
	if digest != want {
		return fmt.Errorf("%s: digest %.12s differs from first %.12s", key, digest, want)
	}
	return nil
}

// digestStrings hashes strings with length prefixes, so no two
// different sequences collide by concatenation.
func digestStrings(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestArrays hashes named float64 arrays bit-exactly (Float64bits),
// with their bounds.
func digestArrays(names []string, get func(string) ([]float64, []int, []int, error)) (string, error) {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, name := range names {
		data, lo, hi, err := get(name)
		if err != nil {
			return "", fmt.Errorf("array %s: %w", name, err)
		}
		h.Write([]byte(name))
		for i := range lo {
			put(uint64(lo[i]))
			put(uint64(hi[i]))
		}
		put(uint64(len(data)))
		for _, v := range data {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// programDigest is a compiled program's observable output: the
// decision report and every rank's node program.
func programDigest(p *dhpf.Program) string {
	parts := []string{p.Report()}
	for r := 0; r < p.Ranks(); r++ {
		parts = append(parts, p.NodeProgram(r))
	}
	return digestStrings(parts...)
}

// counters are the execution counters an exec step must reproduce
// exactly from the static cost oracle.
type counters struct {
	Flops       []float64
	SentMsgs    []int64
	SentBytes   []int64
	RecvMsgs    []int64
	Pulls       []int64
	PulledBytes []int64
	Barriers    int64
}

func countersOf(res *spmd.ExecResult) counters {
	m := res.Machine
	c := counters{Flops: m.RankFlops, SentMsgs: m.SentMsgs, SentBytes: m.SentBytes, RecvMsgs: m.RecvMsgs}
	if sm := res.Shm; sm != nil {
		c.Pulls, c.PulledBytes, c.Barriers = sm.Pulls, sm.PulledBytes, sm.Barriers
	}
	return c
}

// checkCost compares measured counters with Program.PredictCost's
// prediction, exactly.  The shared-memory counters are compared only
// when the run had a shared-memory team (shm).
func checkCost(pred *dhpf.AnalyzeCost, got counters, shm bool) error {
	if !pred.Exact {
		return fmt.Errorf("cost prediction is not exact")
	}
	if err := eqSlice("flops", pred.Flops, got.Flops); err != nil {
		return err
	}
	if err := eqSlice("sent msgs", pred.SentMsgs, got.SentMsgs); err != nil {
		return err
	}
	if err := eqSlice("sent bytes", pred.SentBytes, got.SentBytes); err != nil {
		return err
	}
	if err := eqSlice("recv msgs", pred.RecvMsgs, got.RecvMsgs); err != nil {
		return err
	}
	if !shm {
		return nil
	}
	if err := eqSlice("pulls", pred.Pulls, got.Pulls); err != nil {
		return err
	}
	if err := eqSlice("pulled bytes", pred.PulledBytes, got.PulledBytes); err != nil {
		return err
	}
	if pred.Barriers != got.Barriers {
		return fmt.Errorf("barriers: predicted %d, measured %d", pred.Barriers, got.Barriers)
	}
	return nil
}

func eqSlice[T float64 | int64](what string, want, got []T) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: predicted %d entries, measured %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s[%d]: predicted %v, measured %v", what, i, want[i], got[i])
		}
	}
	return nil
}

// serialTol is the spmd tests' relative tolerance against the
// sequential reference.
const serialTol = 1e-10

// checkClose compares a parallel result with the serial reference
// elementwise within serialTol, relative to max(1, |want|).
func checkClose(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, serial reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > serialTol*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("%s[%d] = %v, serial reference %v", name, i, got[i], want[i])
		}
	}
	return nil
}
