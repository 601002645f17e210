// Package modelcheck exhaustively explores every schedule of a
// deterministic deciding object for small process counts, verifying the
// weak-consensus properties (validity, coherence, acceptance) on every
// reachable complete execution.
//
// Ratifiers are deterministic (§6), so the adversary's only power is the
// interleaving: for tiny n and m the full schedule tree is small enough to
// enumerate, which upgrades the randomized tests from "no violation found"
// to "no violation exists (at this size)". The explorer re-executes the
// object under the simulator for every schedule prefix (the simulator is
// deterministic given the schedule), so it needs no snapshot/restore
// machinery.
package modelcheck

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// ErrBudget is returned when the schedule tree exceeds Options.MaxSchedules.
var ErrBudget = errors.New("modelcheck: schedule budget exhausted")

// Options bounds and configures an exploration.
type Options struct {
	// MaxSchedules caps the number of complete schedules explored
	// (default 1 << 20). Exceeding it returns ErrBudget.
	MaxSchedules int
	// MaxDepth caps schedule length as a safety net against objects that
	// fail to terminate (default 10 000 steps).
	MaxDepth int
	// RatifierPrefix enables acceptance checking for objects whose label
	// matches (see check.Objects); "R" for the quorum ratifiers.
	RatifierPrefix string
}

// Stats reports what an exploration covered.
type Stats struct {
	// Schedules is the number of complete executions verified.
	Schedules int
	// Probes is the number of simulator runs performed (one per explored
	// schedule prefix).
	Probes int
	// MaxSteps is the longest complete schedule seen.
	MaxSteps int
}

// Builder constructs a fresh instance of the object under test in the given
// file. It is called once per probe, so it must be deterministic.
type Builder func(file *register.File) core.Object

// Exhaustive explores every schedule of the object for the given inputs and
// verifies each complete execution. The object must be deterministic: any
// probabilistic write or local coin flip panics the exploration, because a
// schedule-only enumeration would silently miss coin branches.
func Exhaustive(build Builder, inputs []value.Value, opts Options) (Stats, error) {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 1 << 20
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 10_000
	}
	var stats Stats
	err := explore(build, inputs, nil, &opts, &stats)
	return stats, err
}

// explore probes the execution after the given schedule prefix and recurses
// on every runnable process.
func explore(build Builder, inputs []value.Value, prefix []int, opts *Options, stats *Stats) error {
	if len(prefix) > opts.MaxDepth {
		return fmt.Errorf("modelcheck: schedule longer than MaxDepth=%d (non-terminating object?)", opts.MaxDepth)
	}
	run, runnable, err := probe(build, inputs, prefix)
	if err != nil {
		return err
	}
	stats.Probes++
	if len(runnable) == 0 {
		// Complete execution: verify it.
		stats.Schedules++
		if len(prefix) > stats.MaxSteps {
			stats.MaxSteps = len(prefix)
		}
		if stats.Schedules > opts.MaxSchedules {
			return fmt.Errorf("%w (%d schedules)", ErrBudget, opts.MaxSchedules)
		}
		if err := check.Objects(run.Trace, opts.RatifierPrefix); err != nil {
			return fmt.Errorf("schedule %v: %w", prefix, err)
		}
		if err := check.Validity(inputs, run.Outputs()); err != nil {
			return fmt.Errorf("schedule %v: %w", prefix, err)
		}
		return nil
	}
	for _, pid := range runnable {
		next := make([]int, len(prefix)+1)
		copy(next, prefix)
		next[len(prefix)] = pid
		if err := explore(build, inputs, next, opts, stats); err != nil {
			return err
		}
	}
	return nil
}

// probe executes the object under the exact schedule prefix and reports the
// runnable set afterwards (empty when the execution completed within the
// prefix).
func probe(build Builder, inputs []value.Value, prefix []int) (*harness.ObjectRun, []int, error) {
	file := register.NewFile()
	obj := build(file)
	script := &scriptScheduler{script: prefix}
	run, err := harness.RunObject(obj, harness.ObjectConfig{
		N: len(inputs), File: file, Inputs: inputs, Scheduler: script,
		Traced: true, MaxSteps: len(prefix) + 1,
	})
	if err != nil && !script.captured {
		return nil, nil, fmt.Errorf("modelcheck: probe failed at prefix %v: %w", prefix, err)
	}
	return run, script.runnable, nil
}

// scriptScheduler replays a fixed schedule, then captures the runnable set
// at the first unscripted step (the run is cut off by MaxSteps immediately
// after).
type scriptScheduler struct {
	script   []int
	pos      int
	captured bool
	runnable []int
}

func (s *scriptScheduler) Next(v *sched.View) int {
	if v.Kinds[sched.OpProbWrite].Count > 0 {
		panic("modelcheck: object used a probabilistic write; exhaustive exploration covers deterministic objects only")
	}
	if s.pos < len(s.script) {
		pid := s.script[s.pos]
		s.pos++
		if !v.Pending[pid].Valid {
			panic(fmt.Sprintf("modelcheck: scripted pid %d not runnable (harness bug)", pid))
		}
		return pid
	}
	if !s.captured {
		s.captured = true
		s.runnable = append([]int(nil), v.Runnable...)
	}
	return v.Runnable[0]
}

func (s *scriptScheduler) Seed(*xrand.Source) {}

func (s *scriptScheduler) Name() string { return "script" }

// MinPower implements sched.Scheduler. Scripts replay adversary choices of
// any class; ValueOblivious gives the probe visibility of op kinds for the
// determinism guard without copying memory every step.
func (s *scriptScheduler) MinPower() sched.Power { return sched.ValueOblivious }
