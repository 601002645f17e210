package ratifier

import (
	"slices"
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/quorum"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

type schemeCase struct {
	name  string
	m     int
	build func(file *register.File) core.Object
}

func schemeCases(m int) []schemeCase {
	cases := []schemeCase{
		{"pool", m, func(f *register.File) core.Object { return NewPool(f, m, 1) }},
		{"bitvector", m, func(f *register.File) core.Object { return NewBitVector(f, m, 1) }},
	}
	if m == 2 {
		cases = append(cases, schemeCase{"binary", 2, func(f *register.File) core.Object { return NewBinary(f, 1) }})
	}
	return cases
}

func adversaries() []func() sched.Scheduler {
	return []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewRoundRobin() },
		func() sched.Scheduler { return sched.NewUniformRandom() },
		func() sched.Scheduler { return sched.NewSplitVote() },
		func() sched.Scheduler { return sched.NewAdaptiveSpoiler() },
		func() sched.Scheduler { return sched.NewLaggard() },
		func() sched.Scheduler { return sched.NewFrontrunner() },
	}
}

func TestAcceptance(t *testing.T) {
	// If all inputs are equal, all outputs are (1, v) — under any adversary
	// (ratifiers are deterministic, so only the schedule varies).
	for _, m := range []int{2, 3, 7} {
		for _, sc := range schemeCases(m) {
			for _, mk := range adversaries() {
				for v := 0; v < m; v++ {
					file := register.NewFile()
					obj := sc.build(file)
					run, err := harness.RunObject(obj, harness.ObjectConfig{
						N: 4, File: file, Inputs: []value.Value{value.Value(v)},
						Scheduler: mk(), Seed: uint64(v),
					})
					if err != nil {
						t.Fatal(err)
					}
					for pid, d := range run.Decisions {
						if !d.Decided || d.V != value.Value(v) {
							t.Fatalf("%s m=%d v=%d: pid %d returned %s, want (1, %d)",
								sc.name, m, v, pid, d, v)
						}
					}
				}
			}
		}
	}
}

func TestCoherenceAndValidityUnderMixedInputs(t *testing.T) {
	// Across adversaries, seeds, and input patterns: if anyone decides v,
	// everyone outputs v; all outputs are inputs; never two distinct
	// decisions.
	for _, m := range []int{2, 3, 5} {
		for _, sc := range schemeCases(m) {
			for _, mk := range adversaries() {
				for seed := uint64(0); seed < 10; seed++ {
					n := 5
					inputs := make([]value.Value, n)
					for i := range inputs {
						inputs[i] = value.Value((i + int(seed)) % m)
					}
					file := register.NewFile()
					obj := sc.build(file)
					run, err := harness.RunObject(obj, harness.ObjectConfig{
						N: n, File: file, Inputs: inputs, Scheduler: mk(), Seed: seed, Traced: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := check.Objects(run.Trace, "R"); err != nil {
						t.Fatalf("%s m=%d seed=%d: %v\n%s", sc.name, m, seed, err, run.Trace)
					}
					if err := check.Validity(inputs, run.Outputs()); err != nil {
						t.Fatalf("%s m=%d seed=%d: %v", sc.name, m, seed, err)
					}
				}
			}
		}
	}
}

func TestSoloProcessDecides(t *testing.T) {
	// A process running alone cannot distinguish its execution from a
	// unanimous one, so acceptance forces it to decide its own input.
	for _, sc := range schemeCases(4) {
		file := register.NewFile()
		obj := sc.build(file)
		run, err := harness.RunObject(obj, harness.ObjectConfig{
			N: 1, File: file, Inputs: []value.Value{2}, Scheduler: sched.NewRoundRobin(), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := run.Decisions[0]; !d.Decided || d.V != 2 {
			t.Fatalf("%s: solo returned %s, want (1, 2)", sc.name, d)
		}
	}
}

func TestAdoptionMakesConflictVisible(t *testing.T) {
	// A process that adopts the proposed value after announcing a different
	// one must NOT decide: its own announcement conflicts with its adopted
	// preference (this is the heart of the coherence proof).
	file := register.NewFile()
	r := NewBinary(file, 1)
	// p0 (input 0) runs completely first and decides 0; then p1 (input 1)
	// announces 1, adopts 0, and must see its own announcement in R_0.
	run, err := harness.RunObject(r, harness.ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1},
		Scheduler: sched.NewFrontrunner(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := run.Decisions[0]; !d.Decided || d.V != 0 {
		t.Fatalf("first mover returned %s, want (1, 0)", d)
	}
	if d := run.Decisions[1]; d.Decided || d.V != 0 {
		t.Fatalf("latecomer returned %s, want (0, 0)", d)
	}
}

func TestWorkBounds(t *testing.T) {
	// Individual work is exactly bounded by |W|+|R|+2: 4 ops binary,
	// 2⌈lg m⌉+2 bit-vector, poolsize+2 pool — on every execution.
	cases := []struct {
		name  string
		m     int
		build func(f *register.File) *Quorum
		want  int
	}{
		{"binary", 2, func(f *register.File) *Quorum { return NewBinary(f, 1) }, 4},
		{"bitvector m=16", 16, func(f *register.File) *Quorum { return NewBitVector(f, 16, 1) }, 2*4 + 2},
		{"bitvector m=1000", 1000, func(f *register.File) *Quorum { return NewBitVector(f, 1000, 1) }, 2*10 + 2},
		{"pool m=1000", 1000, func(f *register.File) *Quorum { return NewPool(f, 1000, 1) }, 13 + 2},
	}
	for _, tt := range cases {
		file := register.NewFile()
		r := tt.build(file)
		if got := r.MaxIndividualWork(); got != tt.want {
			t.Errorf("%s: MaxIndividualWork = %d, want %d", tt.name, got, tt.want)
		}
		for seed := uint64(0); seed < 10; seed++ {
			n := 6
			inputs := make([]value.Value, n)
			for i := range inputs {
				inputs[i] = value.Value(i % tt.m)
			}
			f2 := register.NewFile()
			r2 := tt.build(f2)
			run, err := harness.RunObject(r2, harness.ObjectConfig{
				N: n, File: f2, Inputs: inputs, Scheduler: sched.NewUniformRandom(), Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := check.IndividualWorkBound(run.Result.Work, tt.want); err != nil {
				t.Errorf("%s seed=%d: %v", tt.name, seed, err)
			}
		}
	}
}

func TestSpaceMatchesPaper(t *testing.T) {
	file := register.NewFile()
	if got := NewBinary(file, 1).Registers(); got != 3 {
		t.Errorf("binary ratifier uses %d registers, want 3", got)
	}
	for _, m := range []int{4, 100, 4096} {
		f := register.NewFile()
		bv := NewBitVector(f, m, 1)
		want := 2*bitsFor(m) + 1
		if got := bv.Registers(); got != want {
			t.Errorf("bitvector m=%d: %d registers, want %d", m, got, want)
		}
		f2 := register.NewFile()
		p := NewPool(f2, m, 1)
		if got := p.Registers(); got != quorum.MinPoolSize(m)+1 {
			t.Errorf("pool m=%d: %d registers, want %d", m, got, quorum.MinPoolSize(m)+1)
		}
	}
}

func bitsFor(m int) int {
	b := 0
	for 1<<b < m {
		b++
	}
	return b
}

func TestCollectRatifierCheapModel(t *testing.T) {
	// §6.2 choice 4: with cheap collects the individual work is 4 ops.
	for seed := uint64(0); seed < 20; seed++ {
		n := 5
		inputs := make([]value.Value, n)
		for i := range inputs {
			inputs[i] = value.Value(i % 3)
		}
		file := register.NewFile()
		r := NewCollect(file, n, 0)
		run, err := harness.RunObject(r, harness.ObjectConfig{
			N: n, File: file, Inputs: inputs, Scheduler: sched.NewUniformRandom(),
			Seed: seed, CheapCollect: true, Traced: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.IndividualWorkBound(run.Result.Work, 4); err != nil {
			t.Fatal(err)
		}
		if err := check.Objects(run.Trace, "RC"); err != nil {
			t.Fatal(err)
		}
		if err := check.Validity(inputs, run.Outputs()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectRatifierAcceptance(t *testing.T) {
	for _, cheap := range []bool{true, false} {
		file := register.NewFile()
		r := NewCollect(file, 4, 0)
		run, err := harness.RunObject(r, harness.ObjectConfig{
			N: 4, File: file, Inputs: []value.Value{9}, Scheduler: sched.NewRoundRobin(),
			Seed: 2, CheapCollect: cheap,
		})
		if err != nil {
			t.Fatal(err)
		}
		for pid, d := range run.Decisions {
			if !d.Decided || d.V != 9 {
				t.Fatalf("cheap=%v pid %d returned %s, want (1, 9)", cheap, pid, d)
			}
		}
	}
}

func TestCollectRatifierCoherence(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		n := 6
		inputs := make([]value.Value, n)
		for i := range inputs {
			inputs[i] = value.Value(i % 2)
		}
		file := register.NewFile()
		r := NewCollect(file, n, 0)
		run, err := harness.RunObject(r, harness.ObjectConfig{
			N: n, File: file, Inputs: inputs, Scheduler: sched.NewUniformRandom(),
			Seed: seed, CheapCollect: true, Traced: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Objects(run.Trace, "RC"); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, run.Trace)
		}
	}
}

func TestLabels(t *testing.T) {
	file := register.NewFile()
	if got := NewBinary(file, -1).Label(); got != "R-1" {
		t.Errorf("label %q", got)
	}
	if got := NewPool(file, 4, 3).Label(); got != "R3" {
		t.Errorf("label %q", got)
	}
	if got := NewCollect(file, 2, 0).Label(); got != "RC0" {
		t.Errorf("label %q", got)
	}
}

func TestSchemeAccessor(t *testing.T) {
	file := register.NewFile()
	r := NewPool(file, 10, 1)
	if r.Scheme().M() != 10 {
		t.Errorf("Scheme().M() = %d", r.Scheme().M())
	}
}

// fileEnv is a single-process Env over a register file with only the
// operations a quorum ratifier issues; anything else panics on the nil
// embedded Env.
type fileEnv struct {
	core.Env
	file *register.File
}

func (e *fileEnv) PID() int                            { return 0 }
func (e *fileEnv) Read(r register.Reg) value.Value     { return e.file.Load(r) }
func (e *fileEnv) Write(r register.Reg, v value.Value) { e.file.Store(r, v) }

// TestBinaryInvokeAllocFree pins the quorum ratifier's hot path at zero
// allocations for every scheme: quorums are bit-mask values, so computing
// one allocates nothing even through the Scheme interface, and the value
// check formats the scheme name only when it panics.
func TestBinaryInvokeAllocFree(t *testing.T) {
	schemes := []struct {
		name  string
		build func(*register.File) *Quorum
	}{
		{"binary", func(f *register.File) *Quorum { return NewBinary(f, 1) }},
		{"pool", func(f *register.File) *Quorum { return NewPool(f, 4096, 1) }},
		{"bitvector", func(f *register.File) *Quorum { return NewBitVector(f, 4096, 1) }},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			file := register.NewFile()
			r := sc.build(file)
			img := file.Contents()
			env := &fileEnv{file: file}
			allocs := testing.AllocsPerRun(100, func() {
				if err := file.Restore(img); err != nil {
					t.Fatal(err)
				}
				if d := r.Invoke(env, 1); !d.Decided || d.V != 1 {
					t.Fatalf("solo Invoke(1) = %s, want (1, 1)", d)
				}
				if d := r.Invoke(env, 0); d.Decided || d.V != 1 {
					t.Fatalf("conflicting Invoke(0) = %s, want (0, 1)", d)
				}
			})
			if allocs != 0 {
				t.Errorf("%s Invoke: %v allocations per run, want 0", sc.name, allocs)
			}
		})
	}
}

// orderEnv is a fileEnv that logs the registers a process touches.
type orderEnv struct {
	fileEnv
	touched []register.Reg
}

func (e *orderEnv) Read(r register.Reg) value.Value {
	e.touched = append(e.touched, r)
	return e.fileEnv.Read(r)
}

func (e *orderEnv) Write(r register.Reg, v value.Value) {
	e.touched = append(e.touched, r)
	e.fileEnv.Write(r, v)
}

// TestQuorumInvokeOrder pins the order in which Invoke touches registers,
// which fixes every trace: W_v's pool registers in ascending order, the
// proposal, then R_pref's pool registers in ascending order.
func TestQuorumInvokeOrder(t *testing.T) {
	builds := []func(f *register.File, m int) *Quorum{
		func(f *register.File, m int) *Quorum { return NewPool(f, m, 1) },
		func(f *register.File, m int) *Quorum { return NewBitVector(f, m, 1) },
	}
	for _, m := range []int{16, 4096} {
		for _, build := range builds {
			for _, v := range []value.Value{0, 5, value.Value(m - 1)} {
				file := register.NewFile()
				r := build(file, m)
				env := &orderEnv{fileEnv: fileEnv{file: file}}
				if d := r.Invoke(env, v); !d.Decided || d.V != v {
					t.Fatalf("%s: solo Invoke(%s) = %s", r.Scheme().Name(), v, d)
				}
				w := r.Scheme().WriteQuorum(v).Indices()
				var want []register.Reg
				for _, i := range w {
					want = append(want, r.pool.At(i))
				}
				want = append(want, r.proposal, r.proposal)
				for _, i := range r.Scheme().ReadQuorum(v).Indices() {
					want = append(want, r.pool.At(i))
				}
				if !slices.Equal(env.touched, want) || !slices.IsSorted(w) {
					t.Fatalf("%s: Invoke(%s) touched %v, want %v", r.Scheme().Name(), v, env.touched, want)
				}
			}
		}
	}
}
