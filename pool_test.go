package modcon

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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

// powerAdversaries holds one adversary of each power class, weakest first;
// interleaving them on one Consensus makes each warm session rebind to a
// scheduler of another class than the one before.
var powerAdversaries = []func() Scheduler{
	func() Scheduler { return NewUniformRandom() },    // oblivious
	func() Scheduler { return NewSplitVote() },        // value-oblivious
	func() Scheduler { return NewFirstMoverAttack() }, // location-oblivious
	func() Scheduler { return NewAdaptiveSpoiler() },  // adaptive
}

// TestSolvePooledMatchesFresh pins the correctness argument of pooled
// instances and their warm sessions: an instance rewound to its
// post-construction register image, replayed on a session built by an
// earlier call, behaves exactly like a freshly built one. Each cell runs a
// rotation of run configurations on one Consensus, so sessions are rebuilt
// across register models, crash plans and fault plans; within a
// configuration consecutive calls replay the warm session with adversaries
// of all four power classes interleaved.
func TestSolvePooledMatchesFresh(t *testing.T) {
	rotation := []RunConfig{
		{Traced: true},
		{Traced: true, Registers: Regular},
		{Traced: true, CrashAfter: map[int]int{0: 3}},
		{Traced: true, Registers: Interposed},
		{Traced: true, Faults: Faults(CrashFault(1, 5), LoseCoinFault(2, 1, 2))},
		{},
		{Registers: Regular, Faults: Faults(CrashFault(0, 2))},
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
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cons, err := New(cell.n, cell.m, cell.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for ci, rc := range rotation {
				rc.CheapCollect = cell.cheap
				for k := range 2 * len(powerAdversaries) {
					seed := uint64(100*ci + k)
					label := fmt.Sprintf("config %d, call %d", ci, k)
					solveMatchesFresh(t, label, cons, mixedInputs(cell.n, cell.m, k), powerAdversaries[k%len(powerAdversaries)], seed, rc)
				}
			}
		})
	}
}

// cloneOutcome deep-copies o, trace included.
func cloneOutcome(o *Outcome) *Outcome {
	cp := *o
	cp.Outputs = slices.Clone(o.Outputs)
	cp.Decided = slices.Clone(o.Decided)
	cp.Stage = slices.Clone(o.Stage)
	cp.FellBack = slices.Clone(o.FellBack)
	cp.Work = slices.Clone(o.Work)
	cp.Trace = o.Trace.Clone()
	return &cp
}

// TestSolveOutcomeIsCallerOwned checks that an Outcome shares nothing with
// the warm session that produced it: ten further calls on the same
// Consensus, which replay that session with other inputs, seeds and
// adversaries, leave it unchanged.
func TestSolveOutcomeIsCallerOwned(t *testing.T) {
	const n = 6
	cons, err := NewBinary(n, WithStages(2), WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []RunConfig{{Traced: true}, {}, {Registers: Regular}} {
		out, err := cons.Solve(mixedInputs(n, 2, 1), NewFirstMoverAttack(), 1, rc)
		if err != nil {
			t.Fatal(err)
		}
		snap := cloneOutcome(out)
		for k := range 10 {
			if _, err := cons.Solve(mixedInputs(n, 2, k), powerAdversaries[k%len(powerAdversaries)](), uint64(100+k), rc); err != nil {
				t.Fatal(err)
			}
		}
		if d := sameOutcome(out, snap); d != "" {
			t.Fatalf("%+v: a later call changed an earlier Outcome: %s", rc, d)
		}
	}
}

// TestSolveRunConfigSwitches drives one Consensus through RunConfigs that
// rebuild its sessions back and forth — register models, tracing, fault
// plans, step limits — and through calls that fail (a step limit, a
// cancelled context). Every call must behave exactly as the same call on a
// freshly built instance: same outcome and trace, or the same error. (That
// each run labels its registers with its own model, whatever label the
// pool rewound the file to, is pinned in internal/harness by
// TestProtocolSessionNamesFollowRegisters.)
func TestSolveRunConfigSwitches(t *testing.T) {
	const n = 6
	cons, err := New(n, 3, WithStages(2), WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	steps := []struct {
		name string
		rc   RunConfig
		want error
	}{
		{"atomic", RunConfig{Traced: true}, nil},
		{"regular", RunConfig{Traced: true, Registers: Regular}, nil},
		{"regular untraced", RunConfig{Registers: Regular}, nil},
		{"interposed", RunConfig{Traced: true, Registers: Interposed}, nil},
		{"atomic again", RunConfig{Traced: true}, nil},
		{"faults", RunConfig{Traced: true, Faults: Faults(CrashFault(2, 3), LoseCoinFault(1, 1, 3))}, nil},
		{"faults regular", RunConfig{Registers: Regular, Faults: Faults(CrashFault(2, 3))}, nil},
		{"no faults", RunConfig{Traced: true}, nil},
		{"max steps", RunConfig{Traced: true, MaxSteps: 1 << 20}, nil},
		{"step limit", RunConfig{MaxSteps: 9}, exec.ErrStepLimit},
		{"after step limit", RunConfig{Traced: true}, nil},
		{"cancelled", RunConfig{Context: cancelled}, exec.ErrCancelled},
		{"regular after cancel", RunConfig{Traced: true, Registers: Regular}, nil},
		{"cancelled regular", RunConfig{Registers: Regular, Context: cancelled}, exec.ErrCancelled},
		{"atomic last", RunConfig{}, nil},
	}
	for i, st := range steps {
		for k := range len(powerAdversaries) {
			seed := uint64(10*i + k)
			label := fmt.Sprintf("%s, call %d", st.name, k)
			adv := powerAdversaries[(i+k)%len(powerAdversaries)]
			inputs := mixedInputs(n, 3, k)
			if st.want == nil {
				solveMatchesFresh(t, label, cons, inputs, adv, seed, st.rc)
				continue
			}
			_, err := cons.Solve(inputs, adv(), seed, st.rc)
			_, freshErr := freshSolve(cons, inputs, adv(), seed, st.rc)
			if !errors.Is(err, st.want) || freshErr == nil || err.Error() != freshErr.Error() {
				t.Fatalf("%s: Solve error %v, fresh error %v, want %v", label, err, freshErr, st.want)
			}
		}
	}
}

// settledGoroutines collects garbage until the goroutine count is at most
// limit, giving finalizers time to run, and returns the last count.
func settledGoroutines(limit int) int {
	g := runtime.NumGoroutine()
	for range 300 {
		if g <= limit {
			break
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		g = runtime.NumGoroutine()
	}
	return g
}

// TestSolveClosesDroppedSessions checks the lifetime of warm sessions: the
// parked coroutines of an instance the pool evicts, or of every instance of
// a dropped Consensus, exit once the garbage collector finalizes the
// instance, so the goroutine count returns to its baseline.
func TestSolveClosesDroppedSessions(t *testing.T) {
	for range 5 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	base := runtime.NumGoroutine()
	solveConcurrently := func(cons *Consensus, n int) {
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range 3 {
					if _, err := cons.Solve(mixedInputs(n, 2, g), NewFirstMoverAttack(), uint64(10*g+k)); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Eviction: the Consensus stays alive, its pool is emptied by GC.
	const n = 8
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	solveConcurrently(cons, n)
	if g := runtime.NumGoroutine(); g < base+n {
		t.Fatalf("%d goroutines with warm sessions pooled, want at least %d (baseline %d + one parked coroutine per process)", g, base+n, base)
	}
	if g := settledGoroutines(base); g > base {
		t.Fatalf("after pool eviction: %d goroutines, baseline %d", g, base)
	}
	solveMatchesFresh(t, "after eviction", cons, mixedInputs(n, 2, 1), func() Scheduler { return NewFirstMoverAttack() }, 7, RunConfig{Traced: true})
	runtime.KeepAlive(cons)

	// Dropped Consensus values, each with several warm instances.
	for i := range 20 {
		c, err := NewBinary(3 + i%4)
		if err != nil {
			t.Fatal(err)
		}
		solveConcurrently(c, c.N())
	}
	cons = nil
	if g := settledGoroutines(base); g > base {
		t.Fatalf("after dropping every Consensus: %d goroutines, baseline %d", g, base)
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
// Consensus; every outcome must match the serial run of the same seed. The
// seeds rotate adversaries of every power class and run configurations, so
// concurrent calls replay and rebuild warm sessions under each other. Run
// it under -race to check that pooled instances and their sessions are
// never shared.
func TestSolveConcurrentMatchesSerial(t *testing.T) {
	const n, goroutines, perG = 5, 8, 6
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	configs := []RunConfig{{Traced: true}, {Traced: true}, {Registers: Regular}, {Traced: true, CrashAfter: map[int]int{1: 4}}}
	solve := func(seed uint64) (*Outcome, error) {
		adv := powerAdversaries[seed%uint64(len(powerAdversaries))]()
		return cons.Solve(mixedInputs(n, 2, int(seed)), adv, seed, configs[seed/2%uint64(len(configs))])
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

// TestSolveAllocs gates the warm session's saving: once warm, a Solve call
// on NewBinary(8) under a fresh first-mover attack allocates only the
// adversary and the caller-owned Outcome — no protocol chain (about 4,400
// allocations when every call built one) and no engine or coroutines
// (about 160 when every call built those). The race detector makes
// sync.Pool drop items at random, so the gate runs only without it.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, limit = 8, 40
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

// TestLiveSolveWarmSession runs the live backend through the same
// instance sessions as the simulator, alternating with sim calls on one
// Consensus: live calls (one-shot backend sessions behind the same path)
// must be safe and well-formed, and every sim call after one must still
// match a fresh instance exactly.
func TestLiveSolveWarmSession(t *testing.T) {
	const n = 4
	cons, err := NewBinary(n, WithStages(2), WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	for k := range 12 {
		inputs := mixedInputs(n, 2, k)
		regs := []RegisterModel{Atomic, Regular}[k/2%2]
		out, err := cons.Solve(inputs, nil, uint64(k), RunConfig{Backend: Live, Registers: regs})
		if err != nil {
			t.Fatalf("call %d: live Solve: %v", k, err)
		}
		if len(out.Outputs) != n || len(out.Work) != n || out.Violation != nil || out.CutShort() {
			t.Fatalf("call %d: live outcome has the wrong shape: %+v", k, out)
		}
		if err := Verify(inputs, out); err != nil {
			t.Fatalf("call %d: live outcome unsafe: %v", k, err)
		}
		if k%3 == 2 {
			solveMatchesFresh(t, fmt.Sprintf("sim after live call %d", k), cons, inputs,
				powerAdversaries[k%len(powerAdversaries)], uint64(k), RunConfig{Traced: k%2 == 0, Registers: regs})
		}
	}
}

// TestVerifyAllocFree pins Verify on a safe outcome at zero allocations:
// it walks the outcome in place.
func TestVerifyAllocFree(t *testing.T) {
	const n = 8
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := mixedInputs(n, 2, 0)
	out, err := cons.Solve(inputs, NewFirstMoverAttack(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Verify(inputs, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Verify: %v allocations per call, want 0", allocs)
	}
}
