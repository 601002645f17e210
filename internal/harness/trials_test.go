package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/stats"
	"github.com/modular-consensus/modcon/internal/value"
)

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		s := TrialSeed(42, i)
		if s2 := TrialSeed(42, i); s2 != s {
			t.Fatalf("TrialSeed(42, %d) unstable: %d != %d", i, s, s2)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("TrialSeed collision: trials %d and %d both got %d", j, i, s)
		}
		seen[s] = i
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Fatal("distinct roots gave identical trial-0 seeds")
	}
}

// consensusAggregate folds one sweep of full consensus executions and
// returns the aggregate statistics, exactly as the experiment drivers do.
func consensusAggregate(t *testing.T, workers int) (stats.Summary, stats.Summary, stats.Tally) {
	t.Helper()
	const n, trials = 8, 48
	var total, individual stats.Acc
	var decided stats.Tally
	err := SweepProtocol(
		Sweep{Trials: trials, Workers: workers, Seed: 99},
		ProtocolSweep{
			Build: func() (*core.Protocol, ObjectConfig) {
				file := register.NewFile()
				proto, err := core.NewProtocol(core.Options{
					N: n, File: file,
					NewRatifier: func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) },
					NewConciliator: func(f *register.File, i int) core.Object {
						return conciliator.NewImpatient(f, n, i)
					},
					FastPath: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return proto, ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
			},
			Inputs: func(tr Trial) []value.Value {
				inputs := make([]value.Value, n)
				for p := range inputs {
					inputs[p] = value.Value((p + tr.Index) % 2)
				}
				return inputs
			},
		},
		func(tr Trial, run *ProtocolRun) {
			total.AddInt(run.Result.TotalWork)
			individual.AddInt(run.Result.MaxIndividualWork())
			decided.Add(len(run.DecidedOutputs()) == n)
		})
	if err != nil {
		t.Fatal(err)
	}
	return total.Summary(), individual.Summary(), decided
}

// TestSweepDeterministicAcrossWorkerCounts is the contract the experiments
// rely on: the same root seed produces bit-identical aggregates whether the
// sweep runs on 1, 4, or 16 workers.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	refTotal, refInd, refDec := consensusAggregate(t, 1)
	for _, workers := range []int{4, 16} {
		total, ind, dec := consensusAggregate(t, workers)
		if total != refTotal {
			t.Errorf("workers=%d total-work summary diverged: %+v != %+v", workers, total, refTotal)
		}
		if ind != refInd {
			t.Errorf("workers=%d individual-work summary diverged: %+v != %+v", workers, ind, refInd)
		}
		if dec != refDec {
			t.Errorf("workers=%d decision tally diverged: %+v != %+v", workers, dec, refDec)
		}
	}
}

func TestSweepMergesInTrialOrder(t *testing.T) {
	var order []int
	err := RunTrials(Sweep{Trials: 50, Workers: 8, Seed: 5},
		func(ctx context.Context, tr Trial) (int, error) {
			// Stagger completion so later trials often finish first.
			if tr.Index%7 == 0 {
				time.Sleep(time.Millisecond)
			}
			return tr.Index, nil
		},
		func(tr Trial, r int) { order = append(order, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("merged %d trials, want 50", len(order))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("merge out of order at %d: %v", i, order)
		}
	}
}

func TestSweepProgressHook(t *testing.T) {
	var last Progress
	calls := 0
	err := SweepObject(
		Sweep{Trials: 10, Workers: 4, Seed: 3, Progress: func(p Progress) { last = p; calls++ }},
		ObjectSweep{Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			r := ratifier.NewBinary(file, 1)
			return r, ObjectConfig{N: 2, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin()}
		}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("progress called %d times, want 10", calls)
	}
	if last.Done != 10 || last.Total != 10 {
		t.Fatalf("final progress %+v", last)
	}
	if last.Steps == 0 || last.Work == 0 {
		t.Fatalf("progress did not account work: %+v", last)
	}
}

// spinObject returns an object that reads a register forever — a stand-in
// for a hung adversary schedule that only cancellation can stop.
func spinObject(file *register.File) core.Object {
	r := file.Alloc1("spin")
	return core.Func{Name: "spin", F: func(e core.Env, _ value.Value) value.Decision {
		for {
			e.Read(r)
		}
	}}
}

func TestSweepStopsOnContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Each trial spins forever: without cancellation a single trial would
	// grind through the simulator's 10M-step default limit.
	err := SweepObject(
		Sweep{Trials: 1 << 20, Workers: 2, Seed: 1, Context: ctx},
		ObjectSweep{Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			return spinObject(file),
				ObjectConfig{N: 2, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewRoundRobin()}
		}},
		nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sweep finished despite timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("sweep took %v to notice cancellation", elapsed)
	}
}

func TestSweepReportsFirstErrorByTrialIndex(t *testing.T) {
	boom := errors.New("boom")
	err := RunTrials(Sweep{Trials: 100, Workers: 8, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) {
			if tr.Index == 3 {
				return 0, boom
			}
			return tr.Index, nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("error does not name the failing trial: %v", err)
	}
}

// TestSweepIgnoresInducedCancellation pins the fold's attribution when a
// failure cancels in-flight trials with lower indices: trial 0 blocks until
// the sweep's context is cancelled, which happens only because trial 9
// failed, so the sweep must report trial 9 rather than trial 0's induced
// context.Canceled.
func TestSweepIgnoresInducedCancellation(t *testing.T) {
	boom := errors.New("boom")
	err := RunTrials(Sweep{Trials: 10, Workers: 2, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) {
			switch tr.Index {
			case 0:
				<-ctx.Done()
				return 0, fmt.Errorf("blocked trial: %w", ctx.Err())
			case 9:
				return 0, boom
			}
			return tr.Index, nil
		}, nil)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 9:") {
		t.Fatalf("err = %v, want trial 9's boom", err)
	}
}

func TestSweepZeroTrials(t *testing.T) {
	called := false
	err := RunTrials(Sweep{Trials: 0, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) { called = true; return 0, nil },
		func(tr Trial, r int) { called = true })
	if err != nil || called {
		t.Fatalf("zero-trial sweep: err=%v called=%v", err, called)
	}
}

// TestRunObjectCancelled pins the context plumbing end to end: a single
// hung execution stops promptly when its context expires.
func TestRunObjectCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	file := register.NewFile()
	_, err := RunObject(spinObject(file), ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1},
		Scheduler: sched.NewLaggard(), Seed: 1, Context: ctx,
	})
	if !errors.Is(err, sim.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
}

// TestInputsSingleProcessSingleInput pins the N == 1 semantics of
// ObjectConfig.inputs(): one input for one process is that process's input —
// the "length N" rule and the "broadcast one value" rule coincide, and
// neither errors nor duplicates the slice.
func TestInputsSingleProcessSingleInput(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	run, err := RunObject(r, ObjectConfig{
		N: 1, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin(), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Decisions[0].Decided || run.Decisions[0].V != 1 {
		t.Fatalf("solo decision %s, want decided 1", run.Decisions[0])
	}
	// Zero inputs is an error even when N == 1.
	file2 := register.NewFile()
	r2 := ratifier.NewBinary(file2, 1)
	if _, err := RunObject(r2, ObjectConfig{N: 1, File: file2, Scheduler: sched.NewRoundRobin()}); err == nil {
		t.Fatal("expected error for 0 inputs with N=1")
	}
	// Non-positive N is rejected before the simulator.
	if _, err := RunObject(r2, ObjectConfig{N: 0, File: file2, Scheduler: sched.NewRoundRobin()}); err == nil {
		t.Fatal("expected error for N=0")
	}
}
