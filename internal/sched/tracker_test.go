package sched

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// fullScanTracker is the conciliator-phase tracker as it was before views
// carried Changed: it copies the whole memory when it arms and rescans every
// cell against that copy on every step. It is the oracle for concTracker,
// which must return the same (phase, cur) at every step from the one-cell
// change reports alone.
type fullScanTracker struct {
	armed    bool
	baseline []value.Value
}

func (c *fullScanTracker) observe(v *View) (phase int, cur value.Value) {
	anyProb := false
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind == OpProbWrite {
			anyProb = true
			break
		}
	}
	if !c.armed {
		if !anyProb {
			return phaseNeutral, value.None
		}
		c.armed = true
		c.baseline = append(c.baseline[:0], v.Memory...)
	}
	for i, m := range v.Memory {
		base := value.None
		if i < len(c.baseline) {
			base = c.baseline[i]
		}
		if m != base && !m.IsNone() {
			return phaseEndgame, m
		}
	}
	if !anyProb {
		c.armed = false
		return phaseNeutral, value.None
	}
	return phasePool, value.None
}

// trackerCoverage counts the situations the random histories produced.
type trackerCoverage struct {
	arms, rearms, endgames int
	restores               int // writes that put a cell back to its arming-time value
	multi                  int // endgame steps with several cells off their baseline
}

// runTrackerHistory drives a concTracker and the full-scan oracle through
// one random memory history, comparing them at every step. As in a real
// execution, each step changes at most one cell and the next view reports
// it; several cells change between two observations of the same round as
// bursts of consecutive steps, which leave several cells off their baseline
// at once (the case where "lowest index wins" matters).
func runTrackerHistory(t *testing.T, seed uint64, cov *trackerCoverage) {
	t.Helper()
	const (
		n     = 4
		cells = 12
		steps = 400
	)
	rng := xrand.New(seed)
	mem := make([]value.Value, cells)
	for i := range mem {
		mem[i] = value.None
		if rng.Intn(4) == 0 {
			mem[i] = value.Value(rng.Intn(3))
		}
	}
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1, 2, 3},
		Pending: make([]Op, n), Memory: mem, Changed: -1, ChangedFrom: value.None}
	var inc concTracker
	var oracle fullScanTracker
	round := false           // whether prob-writes are pending (a conciliator round)
	var armMem []value.Value // memory when the oracle last armed
	burst := 0               // remaining steps of a descending multi-cell burst
	wasArmed, arms := false, 0

	for step := 0; step < steps; step++ {
		// Pending operations: a round has at least one prob-write pending,
		// outside a round there is none.
		if rng.Intn(12) == 0 {
			round = !round
		}
		for pid := range v.Pending {
			kind := OpRead
			if rng.Bool() {
				kind = OpWrite
			}
			v.Pending[pid] = Op{Valid: true, Kind: kind, Reg: -1, Val: value.None}
		}
		if round {
			for pid := range v.Pending {
				if pid == 0 || rng.Bool() {
					v.Pending[pid] = Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: value.Value(rng.Intn(3)), ProbNum: 1, ProbDen: 2}
				}
			}
		}
		v.Step = step
		v.IndexKinds()

		wantPhase, wantCur := oracle.observe(v)
		gotPhase, gotCur := inc.observe(v)
		if gotPhase != wantPhase || gotCur != wantCur {
			t.Fatalf("seed %d step %d: concTracker (%d, %d), full scan (%d, %d)", seed, step, gotPhase, gotCur, wantPhase, wantCur)
		}
		if oracle.armed && !wasArmed {
			if arms++; arms > 1 {
				cov.rearms++
			}
			cov.arms++
			armMem = append(armMem[:0], mem...)
		}
		wasArmed = oracle.armed
		if wantPhase == phaseEndgame {
			cov.endgames++
			off := 0
			for i, m := range mem {
				if m != armMem[i] && !m.IsNone() {
					off++
				}
			}
			if off > 1 {
				cov.multi++
			}
		}

		// Apply this step's operation: at most one cell changes, and the
		// next view reports it.
		v.Changed, v.ChangedFrom = -1, value.None
		cell := -1
		switch {
		case burst > 0:
			// A burst changes several cells on consecutive steps, in
			// descending index order, so a lower cell goes off its
			// baseline after higher ones already are.
			burst--
			cell = cells - 1 - burst*2
		case rng.Intn(20) == 0:
			burst = 1 + rng.Intn(4)
			cell = cells - 1 - burst*2
		case rng.Intn(3) == 0:
			cell = rng.Intn(cells)
		}
		if cell < 0 {
			continue
		}
		nv := value.Value(rng.Intn(3))
		switch {
		case oracle.armed && rng.Intn(3) == 0:
			nv = armMem[cell] // restore the arming-time value (possibly ⊥)
			if mem[cell] != nv {
				cov.restores++
			}
		case rng.Intn(8) == 0:
			nv = value.None
		}
		if mem[cell] != nv {
			v.Changed, v.ChangedFrom = register.Reg(cell), mem[cell]
			mem[cell] = nv
		}
	}
}

func TestConcTrackerMatchesFullScan(t *testing.T) {
	var cov trackerCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		runTrackerHistory(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.arms == 0 || cov.rearms == 0 || cov.endgames == 0 || cov.restores == 0 || cov.multi == 0 {
		t.Fatalf("histories missed a case: %+v", cov)
	}
}

// TestConcTrackerResetKeepsBuffer pins the allocation fix: a tracker that
// has armed once reuses its candidate buffer across rounds and executions.
func TestConcTrackerResetKeepsBuffer(t *testing.T) {
	v := &View{Power: LocationOblivious, N: 2, Runnable: []int{0, 1}, Pending: make([]Op, 2),
		Memory: []value.Value{value.None, value.None}, Changed: -1, ChangedFrom: value.None}
	v.Pending[0] = Op{Valid: true, Kind: OpProbWrite, Val: 1}
	v.IndexKinds()
	var c concTracker
	c.observe(v)
	if cap(c.cand) < v.N {
		t.Fatalf("cand capacity %d after arming, want at least %d", cap(c.cand), v.N)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.reset()
		c.observe(v)
		v.Memory[1], v.Changed, v.ChangedFrom = 1, 1, value.None
		c.observe(v)
		v.Memory[1], v.Changed, v.ChangedFrom = value.None, -1, value.None
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per arm/observe/reset cycle, want 0", allocs)
	}
}
