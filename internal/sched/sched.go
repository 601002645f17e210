// Package sched defines the adversary scheduler of the asynchronous
// shared-memory model and a portfolio of concrete adversary strategies.
//
// The model (§2 of the paper): every process that has not halted has exactly
// one pending operation; an execution is constructed by repeatedly applying
// pending operations, and the choice of which pending operation occurs next
// is made by an adversary — a function from (its view of) the partial
// execution to a process id.
//
// Adversary strength (§2.1) is modeled by Power, which controls which fields
// of the View the runtime populates:
//
//   - Oblivious: sees only the execution length and which processes are
//     still runnable.
//   - ValueOblivious: additionally sees pending operation types and
//     locations, but neither register contents nor pending write values.
//   - LocationOblivious: sees register contents and pending write values,
//     but not pending operation locations. Probabilistic writes are safe
//     against this adversary: their coins are resolved only at execution
//     time, so no scheduler can condition on the outcome.
//   - Adaptive: sees everything that exists before the step (it still cannot
//     predict coins that have not been flipped).
//
// Schedulers are deliberately stateful: an adversary is allowed to remember
// everything it has observed.
package sched

import (
	"fmt"
	"math/bits"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Power is the information class of an adversary (§2.1).
type Power int

const (
	// Oblivious adversaries see nothing but time and liveness.
	Oblivious Power = iota + 1
	// ValueOblivious adversaries see operation types and locations.
	ValueOblivious
	// LocationOblivious adversaries see contents and pending values but not
	// locations; this is the class that admits probabilistic writes.
	LocationOblivious
	// Adaptive adversaries (the strong adversary) see everything.
	Adaptive
)

// String names the power class.
func (p Power) String() string {
	switch p {
	case Oblivious:
		return "oblivious"
	case ValueOblivious:
		return "value-oblivious"
	case LocationOblivious:
		return "location-oblivious"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("power(%d)", int(p))
	}
}

// OpKind is the type of a pending operation, as visible to adversaries that
// may distinguish operation types.
type OpKind int

const (
	// OpRead is a register read.
	OpRead OpKind = iota + 1
	// OpWrite is a deterministic register write.
	OpWrite
	// OpProbWrite is a probabilistic write (takes effect with some
	// probability resolved at execution time).
	OpProbWrite
	// OpCollect is a cheap-collect of a register array.
	OpCollect
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpProbWrite:
		return "probwrite"
	case OpCollect:
		return "collect"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op describes one pending operation, restricted to the adversary's power:
// fields the adversary may not observe are zeroed by the runtime.
type Op struct {
	// Valid is false for processes with no pending operation (halted or
	// crashed processes).
	Valid bool
	// Kind is the operation type (all powers above Oblivious).
	Kind OpKind
	// Reg is the target register; -1 when hidden (LocationOblivious) or for
	// Oblivious views.
	Reg register.Reg
	// Val is the pending write value; value.None when hidden
	// (Oblivious, ValueOblivious) or for reads.
	Val value.Value
	// ProbNum/ProbDen expose the attempt probability of a probabilistic
	// write (LocationOblivious and Adaptive; the probability is part of the
	// pending value/type, not its location).
	ProbNum, ProbDen uint64
	// InFlight marks a pending write (OpWrite/OpProbWrite) that has been
	// invoked but not yet taken effect — the window a regular register lets
	// an overlapping read exploit. Populated for ValueOblivious and
	// stronger views when the execution runs under non-atomic register
	// semantics; always false under register.Atomic, where the window is
	// unobservable by definition.
	InFlight bool
}

// View is what the adversary sees when choosing the next step.
//
// Buffer-reuse contract (copy-on-escape): the View pointer and its Runnable,
// Pending, Memory, and Kinds slices are owned by the runtime and reused on
// every step — the step path is allocation-free by design. Memory is not
// even a copy: it is the live register file itself, aliased, so it already
// shows the effect of every executed step. A Scheduler may read all of them
// freely during Next, but must not mutate them (a write to Memory would
// corrupt the execution; an Add or Remove on a Kinds set would desynchronize
// it from Pending) and must not retain any of them past Next's return; a
// strategy that wants history must copy what it needs into its own state,
// or, as concTracker does, keep only what Changed/ChangedFrom report step by
// step.
type View struct {
	// Power is the information class this view was built for.
	Power Power
	// Semantics is the register consistency model of the execution. Under
	// register.Interposed the runtime additionally blunts strong views:
	// pending operation values and probabilities are hidden (the
	// linearizable implementation layer conceals in-flight contents from
	// the adversary, per Attiya–Enea–Welch), leaving only completed state
	// in Memory.
	Semantics register.Semantics
	// Step counts work-charged operations executed so far.
	Step int
	// N is the number of processes.
	N int
	// Runnable lists the pids with a pending operation, ascending.
	Runnable []int
	// Pending is indexed by pid; entries are power-restricted.
	Pending []Op
	// Memory is the register file contents (LocationOblivious, Adaptive);
	// nil otherwise. It is the live file: read-only, valid during Next only.
	Memory []value.Value
	// Changed is the register the previous step changed, or -1 if that step
	// changed no register (a read, a collect, a probabilistic write that
	// missed or whose coin was lost, a write of the value already stored),
	// and ChangedFrom is the value that register held before the step
	// (value.None when Changed is -1). Populated only for the powers that see
	// Memory, and always -1 below them. They reveal nothing beyond Memory: an
	// adversary could compute them by diffing Memory against its own copy
	// from the previous Next. They let it track memory history in O(change)
	// per step instead of O(file).
	Changed     register.Reg
	ChangedFrom value.Value
	// Kinds files every runnable pid under the Kind of its Pending entry:
	// Kinds[k] is the set of runnable pids whose pending op has Kind k, so
	// the sets partition Runnable. The key is the power-restricted Kind, so
	// below ValueOblivious every runnable pid sits in Kinds[0] and the sets
	// say nothing Runnable does not. The runtime patches the one pid that
	// moved on each step, so "is any probabilistic write pending?" or "the
	// lowest pid poised to read" cost O(1) or O(N/64) instead of a scan of
	// Pending. Views built by hand fill Runnable and Pending and then call
	// IndexKinds.
	Kinds [OpCollect + 1]PidSet
}

// PidSet is a set of pids: a bitset of ⌈N/64⌉ words and its size.
type PidSet struct {
	// Words holds pid p as bit p%64 of Words[p/64].
	Words []uint64
	// Count is the number of pids in the set.
	Count int
}

// First returns the lowest pid in the set, or -1 when it is empty.
func (s *PidSet) First() int {
	for i, w := range s.Words {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Add inserts pid, which must not be in the set. It is the runtime's upkeep:
// schedulers must not call it on a View's sets.
func (s *PidSet) Add(pid int) {
	s.Words[pid>>6] |= 1 << (pid & 63)
	s.Count++
}

// Remove deletes pid, which must be in the set. It is the runtime's upkeep:
// schedulers must not call it on a View's sets.
func (s *PidSet) Remove(pid int) {
	s.Words[pid>>6] &^= 1 << (pid & 63)
	s.Count--
}

// IndexKinds rebuilds Kinds from Runnable and Pending, allocating the sets'
// words the first time (one allocation for all of them). The runtime calls
// it once per execution and patches the sets step by step after that.
func (v *View) IndexKinds() {
	w := (v.N + 63) >> 6
	if len(v.Kinds[0].Words) != w {
		buf := make([]uint64, len(v.Kinds)*w)
		for k := range v.Kinds {
			v.Kinds[k].Words = buf[k*w : (k+1)*w : (k+1)*w]
		}
	}
	for k := range v.Kinds {
		clear(v.Kinds[k].Words)
		v.Kinds[k].Count = 0
	}
	for _, pid := range v.Runnable {
		v.Kinds[v.Pending[pid].Kind].Add(pid)
	}
}

// runnableWord returns word i of the runnable set: the union of the Kinds.
func (v *View) runnableWord(i int) uint64 {
	var w uint64
	for k := range v.Kinds {
		w |= v.Kinds[k].Words[i]
	}
	return w
}

// firstNotOfKind returns the lowest runnable pid whose pending op is not of
// kind k, or -1.
func (v *View) firstNotOfKind(k OpKind) int {
	if v.Kinds[k].Count == len(v.Runnable) {
		return -1
	}
	for i, kw := range v.Kinds[k].Words {
		if w := v.runnableWord(i) &^ kw; w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// nextRunnable returns the first runnable pid at or after from in cyclic
// pid order, or -1 when nothing is runnable.
func (v *View) nextRunnable(from int) int {
	words := len(v.Kinds[0].Words)
	i := from >> 6
	w := v.runnableWord(i) &^ (1<<(from&63) - 1)
	for range words + 1 {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		if i++; i == words {
			i = 0
		}
		w = v.runnableWord(i)
	}
	return -1
}

// PendingOf returns the (restricted) pending op of pid.
func (v *View) PendingOf(pid int) Op {
	if pid < 0 || pid >= len(v.Pending) {
		return Op{}
	}
	return v.Pending[pid]
}

// AnyMemoryWritten reports whether any visible register holds a non-⊥ value.
// Helper for first-mover attack strategies watching for the first successful
// write; requires Memory visibility.
func (v *View) AnyMemoryWritten() bool {
	for _, m := range v.Memory {
		if !m.IsNone() {
			return true
		}
	}
	return false
}

// Scheduler chooses the next process to step. Implementations must return a
// pid drawn from view.Runnable; the runtime panics otherwise, because a
// scheduling bug would silently corrupt every measurement built on top.
type Scheduler interface {
	// Next picks the pid whose pending operation executes next.
	Next(view *View) int
	// Seed hands the scheduler its private randomness stream for this
	// execution and resets all per-execution mutable state. The runtime
	// calls it exactly once before the first Next of every execution — a
	// pooled engine reuses one Scheduler across many trials, so any history
	// a strategy accumulates (positions, step counters, attack phase) must
	// be cleared here, not in a constructor. Deterministic schedulers
	// ignore the source but still reset.
	Seed(src *xrand.Source)
	// Name identifies the strategy in reports.
	Name() string
	// MinPower returns the weakest adversary class under which this
	// strategy is implementable. The runtime builds views at exactly this
	// power, so a strategy can never accidentally exploit information its
	// class forbids.
	MinPower() Power
}
