package harness

// Tests for the worker loop's in-place, in-order fold: whatever the worker
// count, and however trial completions interleave, every merged record must
// equal the single-worker reference — including records that waited their
// turn as parked copies while their session moved on. Sweep.Offset must
// partition a seed space exactly, and the first failure by trial index
// must be the one reported.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// skew delays every fourth trial at its start, so the trials after it
// finish first and park until it is merged.
func skew(tr Trial) {
	if tr.Index%4 == 0 {
		time.Sleep(300 * time.Microsecond)
	}
}

// alternating gives process p input (p+i) mod 2 in trial i, except that
// every third trial is unanimous.
func alternating(n int) func(tr Trial) []value.Value {
	return func(tr Trial) []value.Value {
		skew(tr)
		if tr.Index%3 == 0 {
			return []value.Value{1}
		}
		inputs := make([]value.Value, n)
		for p := range inputs {
			inputs[p] = value.Value((p + tr.Index) % 2)
		}
		return inputs
	}
}

// foldProtocolSpec is a binary consensus cell (impatient conciliators,
// binary ratifiers, fast path) with skewed trial starts. rogue swaps the
// ratifiers for one that decides its own input at once, so that trials
// with mixed inputs violate agreement; mut adjusts the configuration.
func foldProtocolSpec(t *testing.T, n int, rogue bool, mut func(cfg *ObjectConfig)) ProtocolSweep {
	t.Helper()
	newRatifier := func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) }
	if rogue {
		newRatifier = func(f *register.File, i int) core.Object {
			r := f.Alloc1(fmt.Sprintf("rogue%d", i))
			return core.Func{Name: "R", F: func(e core.Env, v value.Value) value.Decision {
				e.Write(r, v)
				return value.Decide(v)
			}}
		}
	}
	return ProtocolSweep{
		Build: func() (*core.Protocol, ObjectConfig) {
			file := register.NewFile()
			proto, err := core.NewProtocol(core.Options{
				N: n, File: file,
				NewRatifier: newRatifier,
				NewConciliator: func(f *register.File, i int) core.Object {
					return conciliator.NewImpatient(f, n, i)
				},
				FastPath: true,
			})
			if err != nil {
				t.Error(err)
			}
			cfg := ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
			if mut != nil {
				mut(&cfg)
			}
			return proto, cfg
		},
		Inputs: alternating(n),
	}
}

// protocolRecord is everything a protocol merge can see of one trial,
// copied out of the run.
type protocolRecord struct {
	Index     int
	Result    exec.Result
	Decided   []bool
	Stages    []int
	Fallback  []bool
	Violation string
	Events    []trace.Event
}

func recordProtocol(tr Trial, run *ProtocolRun) protocolRecord {
	rec := protocolRecord{
		Index:   tr.Index,
		Result:  *run.Result,
		Decided: append([]bool(nil), run.Decided...),
	}
	rec.Result.Outputs = append([]value.Value(nil), run.Result.Outputs...)
	rec.Result.Halted = append([]bool(nil), run.Result.Halted...)
	rec.Result.Crashed = append([]bool(nil), run.Result.Crashed...)
	rec.Result.Stalled = append([]bool(nil), run.Result.Stalled...)
	rec.Result.Work = append([]int(nil), run.Result.Work...)
	rec.Result.Trace = nil
	for pid := range run.Decided {
		st, fb := run.DecidedStage(pid)
		rec.Stages = append(rec.Stages, st)
		rec.Fallback = append(rec.Fallback, fb)
	}
	if run.Violation != nil {
		rec.Violation = run.Violation.Error()
	}
	if run.Trace != nil {
		if run.Result.Trace != run.Trace {
			panic("run.Result.Trace is not the run's trace")
		}
		rec.Events = append([]trace.Event(nil), run.Trace.Events()...)
	}
	return rec
}

func protocolRecords(t *testing.T, s Sweep, spec ProtocolSweep) []protocolRecord {
	t.Helper()
	var recs []protocolRecord
	if err := SweepProtocol(s, spec, func(tr Trial, run *ProtocolRun) {
		recs = append(recs, recordProtocol(tr, run))
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFoldMatchesSerialReference runs protocol and object sweeps at 1, 2, 4
// and 8 workers with skewed trial starts, so that results park out of
// order, and requires every merged record to equal the 1-worker reference
// field for field: work, outputs, halting and crash flags, decided flags,
// stages, violation and trace. Runs under -race in CI.
func TestFoldMatchesSerialReference(t *testing.T) {
	const n, trials = 6, 40
	cells := []struct {
		name  string
		rogue bool
		mut   func(cfg *ObjectConfig)
	}{
		{"plain", false, nil},
		{"violating", true, nil},
		{"faulted", false, func(cfg *ObjectConfig) {
			cfg.Faults = fault.New(fault.Crash(0, 30), fault.LoseCoin(1, 1, 2))
		}},
		{"regular-registers", false, func(cfg *ObjectConfig) { cfg.Registers = register.Regular }},
		{"traced", false, func(cfg *ObjectConfig) { cfg.Traced = true }},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			spec := foldProtocolSpec(t, n, cell.rogue, cell.mut)
			ref := protocolRecords(t, Sweep{Trials: trials, Workers: 1, Seed: 42}, spec)
			if len(ref) != trials {
				t.Fatalf("reference merged %d trials, want %d", len(ref), trials)
			}
			violations := 0
			for i, rec := range ref {
				if rec.Index != i {
					t.Fatalf("reference merged trial %d at position %d", rec.Index, i)
				}
				if rec.Violation != "" {
					violations++
				}
			}
			if cell.rogue && (violations == 0 || violations == trials) {
				t.Fatalf("rogue cell violated in %d of %d trials; want some but not all", violations, trials)
			}
			for _, workers := range []int{2, 4, 8} {
				got := protocolRecords(t, Sweep{Trials: trials, Workers: workers, Seed: 42}, spec)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d: merged records diverged from the 1-worker reference", workers)
				}
			}
		})
	}

	t.Run("object", func(t *testing.T) {
		type objectRecord struct {
			Work      []int
			Outputs   []value.Value
			Decisions []value.Decision
		}
		spec := ObjectSweep{
			Build: func() (core.Object, ObjectConfig) {
				file := register.NewFile()
				return conciliator.NewImpatient(file, n, 1),
					ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
			},
			Inputs: alternating(n),
		}
		records := func(workers int) []objectRecord {
			var recs []objectRecord
			err := SweepObject(Sweep{Trials: trials, Workers: workers, Seed: 7}, spec, func(tr Trial, run *ObjectRun) {
				if tr.Index != len(recs) {
					t.Errorf("workers=%d: merged trial %d at position %d", workers, tr.Index, len(recs))
				}
				recs = append(recs, objectRecord{
					Work:      append([]int(nil), run.Result.Work...),
					Outputs:   run.Outputs(),
					Decisions: append([]value.Decision(nil), run.Decisions...),
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			return recs
		}
		ref := records(1)
		for _, workers := range []int{2, 4, 8} {
			if got := records(workers); !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d: object records diverged from the 1-worker reference", workers)
			}
		}
	})

	t.Run("owned", func(t *testing.T) {
		records := func(workers int) []string {
			var recs []string
			err := RunTrials(Sweep{Trials: trials, Workers: workers, Seed: 9},
				func(ctx context.Context, tr Trial) (string, error) {
					skew(tr)
					return fmt.Sprintf("%d:%x", tr.Index, tr.Seed), nil
				},
				func(tr Trial, r string) { recs = append(recs, r) })
			if err != nil {
				t.Fatal(err)
			}
			return recs
		}
		ref := records(1)
		for _, workers := range []int{2, 4, 8} {
			if got := records(workers); !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d: merged %v, want %v", workers, got, ref)
			}
		}
	})
}

// TestSweepOffsetPartitions pins the shard contract: contiguous Offset
// slices of a seed space compute exactly the trials the unsharded sweep
// would, so reassembling shard results by global index reproduces the
// unsharded sweep bit for bit.
func TestSweepOffsetPartitions(t *testing.T) {
	const n, trials = 8, 21
	spec := foldProtocolSpec(t, n, false, nil)
	base := protocolRecords(t, Sweep{Trials: trials, Workers: 1, Seed: 11}, spec)
	var merged []protocolRecord
	for _, shard := range []struct{ lo, hi int }{{0, 8}, {8, 16}, {16, trials}} {
		merged = append(merged, protocolRecords(t, Sweep{
			Trials: shard.hi - shard.lo, Offset: shard.lo, Workers: 2, Seed: 11,
		}, spec)...)
	}
	if !reflect.DeepEqual(merged, base) {
		t.Error("merged shard records diverged from the unsharded sweep")
	}
}

// TestSweepFirstErrorIndexAcrossWorkers pins deterministic failure
// attribution: a per-trial error (bad input arity) surfaces as the same
// "harness: trial N" error at every worker count, and no trial at or after
// it is merged.
func TestSweepFirstErrorIndexAcrossWorkers(t *testing.T) {
	const n, trials, victim = 4, 12, 9
	spec := ObjectSweep{
		Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			return conciliator.NewImpatient(file, n, 1),
				ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
		},
		Inputs: func(tr Trial) []value.Value {
			skew(tr)
			if tr.Index == victim {
				return make([]value.Value, n+1) // wrong arity: rejected before the run
			}
			return []value.Value{value.Value(tr.Index % 2)}
		},
	}
	want := fmt.Sprintf("harness: trial %d:", victim)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			merged := 0
			err := SweepObject(Sweep{Trials: trials, Workers: workers, Seed: 3}, spec,
				func(tr Trial, _ *ObjectRun) {
					if tr.Index >= victim {
						t.Errorf("merged trial %d after the failure at %d", tr.Index, victim)
					}
					merged++
				})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("error %v, want one containing %q", err, want)
			}
			if merged > victim {
				t.Errorf("merged %d trials, want at most %d", merged, victim)
			}
		})
	}
}
