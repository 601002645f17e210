package modcon

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
)

// freshSolve is the reference a pooled Solve must match: the same execution
// on an instance from Build, which never comes from the pool.
func freshSolve(c *Consensus, inputs []Value, s Scheduler, seed uint64, rc RunConfig) (*Outcome, error) {
	file, proto, err := c.Build()
	if err != nil {
		return nil, err
	}
	be, err := rc.Backend.impl()
	if err != nil {
		return nil, err
	}
	run, err := harness.RunProtocol(proto, harness.ObjectConfig{
		N: c.n, File: file, Inputs: inputs, Backend: be, Scheduler: s, Seed: seed,
		Traced: rc.Traced, CheapCollect: rc.CheapCollect, Registers: rc.Registers,
		CrashAfter: rc.CrashAfter, Faults: rc.Faults,
		MaxSteps: rc.MaxSteps, Context: rc.Context,
	})
	if err != nil {
		return nil, err
	}
	return newOutcome(run), nil
}

// sameOutcome reports how got and want differ, or "" if they are equal
// field for field, traces included.
func sameOutcome(got, want *Outcome) string {
	ge, we := got.Trace.Events(), want.Trace.Events()
	for i := range min(len(ge), len(we)) {
		if ge[i] != we[i] {
			return fmt.Sprintf("traces differ at event %d: pooled %q, fresh %q", i, ge[i], we[i])
		}
	}
	if len(ge) != len(we) {
		return fmt.Sprintf("traces differ in length: pooled %d events, fresh %d", len(ge), len(we))
	}
	g, w := *got, *want
	g.Trace, w.Trace = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("outcomes differ:\npooled %+v\nfresh  %+v", g, w)
	}
	return ""
}

// solveMatchesFresh runs Solve and the fresh reference on the same inputs,
// adversary and seed, and fails the test unless they agree exactly.
func solveMatchesFresh(t *testing.T, label string, cons *Consensus, inputs []Value, mk func() Scheduler, seed uint64, rc RunConfig) {
	t.Helper()
	got, err := cons.Solve(inputs, mk(), seed, rc)
	if err != nil {
		t.Fatalf("%s: Solve: %v", label, err)
	}
	want, err := freshSolve(cons, inputs, mk(), seed, rc)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", label, err)
	}
	if d := sameOutcome(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestSolvePooledMatchesFresh pins the pool's correctness argument: an
// instance rewound to its post-construction register image behaves exactly
// like a freshly built one. Each cell runs a rotation of run configurations
// on one Consensus, so pooled instances carry the previous run's register
// model, crash plan and final memory into the next Solve.
func TestSolvePooledMatchesFresh(t *testing.T) {
	rotation := []RunConfig{
		{Traced: true},
		{Traced: true, Registers: Regular},
		{Traced: true, CrashAfter: map[int]int{0: 3}},
		{Traced: true, Registers: Interposed},
		{Traced: true, Faults: Faults(CrashFault(1, 5), LoseCoinFault(2, 1, 2))},
	}
	cells := []struct {
		name  string
		n, m  int
		opts  []Option
		cheap bool
	}{
		{name: "binary", n: 4, m: 2},
		{name: "pool", n: 5, m: 4, opts: []Option{WithScheme(SchemePool)}},
		{name: "bitvector", n: 5, m: 4, opts: []Option{WithScheme(SchemeBitVector)}},
		{name: "collect", n: 4, m: 3, opts: []Option{WithScheme(SchemeCollect)}, cheap: true},
		{name: "constant-rate", n: 4, m: 2, opts: []Option{WithConciliator(ConciliatorConstantRate)}},
		{name: "shared-coin", n: 3, m: 2, opts: []Option{WithConciliator(ConciliatorSharedCoin)}},
		{name: "fallback", n: 4, m: 3, opts: []Option{WithStages(1), WithFallback(true)}},
		{name: "ratifier-only+fallback", n: 3, m: 2, opts: []Option{WithConciliator(ConciliatorNone), WithFallback(true)}},
	}
	advs := []func() Scheduler{
		func() Scheduler { return NewFirstMoverAttack() },
		func() Scheduler { return NewUniformRandom() },
		func() Scheduler { return NewSplitVote() },
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cons, err := New(cell.n, cell.m, cell.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 3*uint64(len(rotation)); seed++ {
				rc := rotation[int(seed)%len(rotation)]
				rc.CheapCollect = cell.cheap
				label := fmt.Sprintf("seed %d, config %d", seed, int(seed)%len(rotation))
				solveMatchesFresh(t, label, cons, mixedInputs(cell.n, cell.m, int(seed)), advs[int(seed)%len(advs)], seed, rc)
			}
		})
	}
}

// TestSolvePooledLive checks the live backend through the pool. Live runs
// are not reproducible, so only safety and shape are compared; each one is
// followed by a sim run that must still match a fresh instance exactly.
func TestSolvePooledLive(t *testing.T) {
	const n = 4
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 8; seed++ {
		inputs := mixedInputs(n, 2, int(seed))
		regs := []RegisterModel{Atomic, Regular}[seed%2]
		out, err := cons.Solve(inputs, nil, seed, RunConfig{Backend: Live, Registers: regs})
		if err != nil {
			t.Fatalf("seed %d: live Solve: %v", seed, err)
		}
		if len(out.Outputs) != n || len(out.Stage) != n || out.Violation != nil {
			t.Fatalf("seed %d: live outcome has the wrong shape: %+v", seed, out)
		}
		for pid, d := range out.Decided {
			if !d || out.Outputs[pid] != out.Value {
				t.Fatalf("seed %d: pid %d decided=%v output %s, agreed value %s", seed, pid, d, out.Outputs[pid], out.Value)
			}
		}
		if err := Verify(inputs, out); err != nil {
			t.Fatalf("seed %d: live outcome unsafe: %v", seed, err)
		}
		solveMatchesFresh(t, fmt.Sprintf("sim after live, seed %d", seed), cons, inputs,
			func() Scheduler { return NewFirstMoverAttack() }, seed, RunConfig{Traced: true})
	}
}

// TestSolveAfterAbortedRunMatchesFresh checks that a Solve cut short by the
// step limit or by cancellation returns a properly rewound instance: the
// next Solve is identical to a fresh run.
func TestSolveAfterAbortedRunMatchesFresh(t *testing.T) {
	const n = 8
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	aborts := []struct {
		name string
		rc   RunConfig
		want error
	}{
		{"step limit", RunConfig{MaxSteps: 7}, exec.ErrStepLimit},
		{"cancelled", RunConfig{Context: cancelled}, exec.ErrCancelled},
	}
	for _, a := range aborts {
		for seed := uint64(1); seed <= 4; seed++ {
			inputs := mixedInputs(n, 2, int(seed))
			if _, err := cons.Solve(inputs, NewFirstMoverAttack(), seed, a.rc); !errors.Is(err, a.want) {
				t.Fatalf("%s, seed %d: Solve error %v, want %v", a.name, seed, err, a.want)
			}
			solveMatchesFresh(t, fmt.Sprintf("after %s, seed %d", a.name, seed), cons, inputs,
				func() Scheduler { return NewFirstMoverAttack() }, seed, RunConfig{Traced: true})
		}
	}
}

// TestSolveConcurrentMatchesSerial runs Solve from 8 goroutines on one
// Consensus; every outcome must match the serial run of the same seed. Run
// it under -race to check that pooled instances are never shared.
func TestSolveConcurrentMatchesSerial(t *testing.T) {
	const n, goroutines, perG = 5, 8, 6
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(seed uint64) (*Outcome, error) {
		return cons.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed, RunConfig{Traced: true})
	}
	serial := make([]*Outcome, goroutines*perG)
	for i := range serial {
		if serial[i], err = solve(uint64(i)); err != nil {
			t.Fatalf("serial seed %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perG {
				seed := uint64(k*goroutines + g)
				out, err := solve(seed)
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
				if d := sameOutcome(out, serial[seed]); d != "" {
					t.Errorf("seed %d: concurrent vs serial: %s", seed, d)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveAllocs gates the pool's saving: once warm, a Solve call on
// NewBinary(8) under a fresh first-mover attack allocates only what one
// execution needs, not a whole protocol chain (about 4,400 allocations
// when every call built one). The race detector makes sync.Pool drop items
// at random, so the gate runs only without it.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, limit = 8, 440
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := mixedInputs(n, 2, 0)
	seed := uint64(0)
	call := func() {
		seed++
		if _, err := cons.Solve(inputs, NewFirstMoverAttack(), seed); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm-up: the one call that builds
	if allocs := testing.AllocsPerRun(100, call); allocs > limit {
		t.Errorf("Solve: %v allocations per call, want at most %d", allocs, limit)
	}
}
