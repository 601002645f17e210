package modcon

// Public-API tests for Consensus.Sweep: per-trial outcomes must be
// bit-identical at any worker count, a warm sweep must allocate nothing per
// trial and build no protocol, and the option-validation errors must be
// actionable.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func sweepDigest(t *testing.T, c *Consensus, trials int, opts ...RunOption) ([]int, []Value) {
	t.Helper()
	works := make([]int, trials)
	values := make([]Value, trials)
	opts = append(opts, WithSeed(21))
	err := c.Sweep(trials, func() Scheduler { return NewUniformRandom() },
		func(tr Trial) []Value { return mixedInputs(c.N(), 2, tr.Index) },
		func(tr Trial, o *Outcome) {
			works[tr.Index] = o.TotalWork
			values[tr.Index] = o.Value
		}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return works, values
}

func TestConsensusSweepWorkerDeterminism(t *testing.T) {
	c, err := NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30
	baseWorks, baseValues := sweepDigest(t, c, trials, WithWorkers(1))
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			works, values := sweepDigest(t, c, trials, WithWorkers(workers))
			if !reflect.DeepEqual(works, baseWorks) || !reflect.DeepEqual(values, baseValues) {
				t.Errorf("WithWorkers(%d) diverged from the single-worker sweep", workers)
			}
		})
	}
}

// mallocs counts the heap allocations f makes, after one warm-up call.
// Unlike testing.AllocsPerRun it leaves GOMAXPROCS alone, so every worker
// of a sweep starts at once and builds its session in short sweeps too.
func mallocs(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestConsensusSweepZeroAllocs is the zero-allocations-per-trial pin through
// the public sweep entry point, on an E6 cell: NewBinary(8) under
// round-robin and under the first-mover attack, at 1 and 2 workers. The
// per-trial cost is the difference between a long and a short sweep, so
// per-sweep set-up (sessions, workers, the reused Outcome) cancels out. At
// 2 workers trial 0 waits until trial 1 has started, so that both workers
// build their sessions in the short sweep too, and the least of three
// measurements discards one that a garbage collection disturbed (it empties
// the pools, and the next sweep builds). The race detector makes sync.Pool
// drop items at random, so the pin runs only without it.
func TestConsensusSweepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n, short, long = 8, 64, 1024
	inputs := make([][]Value, long)
	for i := range inputs {
		inputs[i] = mixedInputs(n, 2, i)
	}
	for _, adv := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"round-robin", func() Scheduler { return NewRoundRobin() }},
		{"first-mover-attack", func() Scheduler { return NewFirstMoverAttack() }},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", adv.name, workers), func(t *testing.T) {
				c, err := NewBinary(n)
				if err != nil {
					t.Fatal(err)
				}
				work := 0
				sweep := func(trials int) func() {
					return func() {
						started := make(chan struct{})
						err := c.Sweep(trials, adv.mk,
							func(tr Trial) []Value {
								switch {
								case workers == 1:
								case tr.Index == 0:
									<-started
								case tr.Index == 1:
									close(started)
								}
								return inputs[tr.Index]
							},
							func(_ Trial, o *Outcome) { work += o.TotalWork },
							WithSeed(6), WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				perTrial := math.Inf(1)
				for range 3 {
					diff := float64(mallocs(sweep(long))) - float64(mallocs(sweep(short)))
					perTrial = min(perTrial, diff/(long-short))
				}
				t.Logf("%.4f allocations per trial", perTrial)
				if perTrial > 0.05 {
					t.Errorf("%.3f allocations per trial, want at most 0.05", perTrial)
				}
			})
		}
	}
}

// TestConsensusSweepReusesInstances pins the release hook: a session that
// closes cleanly hands its protocol instance back to the Consensus pool, so
// a second Sweep builds nothing — it allocates far less than one Build.
func TestConsensusSweepReusesInstances(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(1, func() {
		if _, _, err := c.Build(); err != nil {
			t.Fatal(err)
		}
	})
	sweep := func() {
		err := c.Sweep(4, func() Scheduler { return NewRoundRobin() }, nil, nil,
			WithInputs(mixedInputs(8, 2, 1)...), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep() // builds the one instance the sweep's session uses
	if again := testing.AllocsPerRun(1, sweep); again > build/2 {
		t.Errorf("second Sweep allocated %.0f times; one Build allocates %.0f, so it built again", again, build)
	}
}

func TestConsensusSweepStages(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	err = c.Sweep(10, func() Scheduler { return NewRoundRobin() }, nil,
		func(tr Trial, o *Outcome) {
			for pid, d := range o.Decided {
				if !d {
					continue
				}
				decided++
				if stage := o.Stage[pid]; stage < 0 && !o.FellBack[pid] {
					t.Errorf("trial %d pid %d decided but reports stage %d without fallback", tr.Index, pid, stage)
				}
			}
		}, WithInputs(1), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if decided == 0 {
		t.Fatal("no process decided in any trial")
	}
}

func TestConsensusSweepOptionValidation(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(Trial, *Outcome) {}
	mk := func() Scheduler { return NewRoundRobin() }

	err = c.Sweep(2, mk, nil, nop, WithInputs(1), WithScheduler(NewRoundRobin()))
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("WithScheduler on Sweep: got %v, want ErrBadOption (factory required)", err)
	}
	err = c.Sweep(2, nil, nil, nop, WithInputs(1))
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("nil scheduler factory on Sim: got %v, want ErrBadOption", err)
	}
	err = c.Sweep(2, mk, nil, nop)
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("no inputs: got %v, want ErrBadOption", err)
	}
}
