package sched

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// The attacks as they were before views carried kind sets: every decision
// scans Runnable and loads each pid's Pending entry, attempts are plain
// per-pid counters, and the conciliator phase comes from fullScanTracker.
// They are the oracles FirstMoverAttack and EagerWriteAttack must match
// step for step.

// attackCoverage counts the situations the oracles met, so a test can
// check its histories reached the decisions the sets answer.
type attackCoverage struct {
	releases     int // pool-phase releases of the cheapest attempt
	releaseTies  int // ... where several runnable pids had the fewest attempts
	releaseSkips int // ... where a lower pid had more attempts than the winner
	fires        int // endgame writes fired
	fireAvoids   int // ... where a lower-attempt candidate held the avoided value
	fireSkips    int // ... where a lower pid had more attempts than the winner
	endgames     int // endgame steps
	neutral      int // neutral (round-robin) steps
	pool         int // pool-phase steps that advanced a non-writer
}

type scanEndgame struct {
	locked    bool
	lockedVal value.Value
	attempts  []int
	cov       *attackCoverage
}

func (g *scanEndgame) reset() {
	g.locked = false
	g.lockedVal = value.None
	for i := range g.attempts {
		g.attempts[i] = 0
	}
}

func (g *scanEndgame) play(v *View, cur value.Value) int {
	if !g.locked {
		if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
			g.locked = true
			g.lockedVal = cur
			return pid
		}
		if pid := g.fireWrite(v, value.None); pid >= 0 {
			return pid
		}
		return v.Runnable[0]
	}
	if cur != g.lockedVal {
		if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
			return pid
		}
		if pid := g.fireWrite(v, value.None); pid >= 0 {
			return pid
		}
		return v.Runnable[0]
	}
	if pid := g.fireWrite(v, cur); pid >= 0 {
		return pid
	}
	if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
		return pid
	}
	return v.Runnable[0]
}

func (g *scanEndgame) fireWrite(v *View, avoid value.Value) int {
	if g.attempts == nil {
		g.attempts = make([]int, v.N)
	}
	best, avoided := -1, false
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if op.Kind != OpProbWrite {
			continue
		}
		if !avoid.IsNone() && op.Val == avoid {
			avoided = true
			continue
		}
		if best == -1 || g.attempts[pid] < g.attempts[best] {
			best = pid
		}
	}
	if best >= 0 && g.cov != nil {
		g.cov.fires++
		if avoided {
			g.cov.fireAvoids++
		}
		if skipsLowerPid(v, g.attempts, best) {
			g.cov.fireSkips++
		}
	}
	if best >= 0 {
		g.attempts[best]++
	}
	return best
}

// skipsLowerPid reports whether some runnable prob-writer below best has
// more attempts than best: the winner was not simply the lowest pid.
func skipsLowerPid(v *View, attempts []int, best int) bool {
	for _, pid := range v.Runnable {
		if pid < best && v.Pending[pid].Kind == OpProbWrite && attempts[pid] > attempts[best] {
			return true
		}
	}
	return false
}

func scanPendingOfKind(v *View, kind OpKind) int {
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind == kind {
			return pid
		}
	}
	return -1
}

type scanFirstMoverAttack struct {
	tracker  fullScanTracker
	endgame  scanEndgame
	attempts []int
	next     int
	cov      *attackCoverage
}

func (s *scanFirstMoverAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	switch phase {
	case phaseEndgame:
		s.count(func(c *attackCoverage) { c.endgames++ })
		return s.endgame.play(v, cur)
	case phaseNeutral:
		s.count(func(c *attackCoverage) { c.neutral++ })
		s.endgame.reset()
		for i := 0; i < v.N; i++ {
			pid := (s.next + i) % v.N
			if v.Pending[pid].Valid {
				s.next = (pid + 1) % v.N
				return pid
			}
		}
		return v.Runnable[0]
	}
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind != OpProbWrite {
			s.count(func(c *attackCoverage) { c.pool++ })
			return pid
		}
	}
	if s.attempts == nil {
		s.attempts = make([]int, v.N)
	}
	best := -1
	for _, pid := range v.Runnable {
		if best == -1 || s.attempts[pid] < s.attempts[best] {
			best = pid
		}
	}
	s.count(func(c *attackCoverage) {
		c.releases++
		ties := 0
		for _, pid := range v.Runnable {
			if s.attempts[pid] == s.attempts[best] {
				ties++
			}
		}
		if ties > 1 {
			c.releaseTies++
		}
		if skipsLowerPid(v, s.attempts, best) {
			c.releaseSkips++
		}
	})
	s.attempts[best]++
	return best
}

func (s *scanFirstMoverAttack) count(f func(*attackCoverage)) {
	if s.cov != nil {
		f(s.cov)
	}
}

func (s *scanFirstMoverAttack) Seed(*xrand.Source) {
	s.tracker = fullScanTracker{baseline: s.tracker.baseline[:0]}
	s.endgame.reset()
	for i := range s.attempts {
		s.attempts[i] = 0
	}
	s.next = 0
}
func (s *scanFirstMoverAttack) Name() string    { return "scan-first-mover-attack" }
func (s *scanFirstMoverAttack) MinPower() Power { return LocationOblivious }

type scanEagerWriteAttack struct {
	tracker fullScanTracker
	endgame scanEndgame
	next    int
}

func (s *scanEagerWriteAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	if phase == phaseEndgame {
		return s.endgame.play(v, cur)
	}
	if phase == phaseNeutral {
		s.endgame.reset()
	}
	for i := 0; i < v.N; i++ {
		pid := (s.next + i) % v.N
		if v.Pending[pid].Valid {
			s.next = (pid + 1) % v.N
			return pid
		}
	}
	return v.Runnable[0]
}

func (s *scanEagerWriteAttack) Seed(*xrand.Source) {
	s.tracker = fullScanTracker{baseline: s.tracker.baseline[:0]}
	s.endgame.reset()
	s.next = 0
}
func (s *scanEagerWriteAttack) Name() string    { return "scan-eager-write-attack" }
func (s *scanEagerWriteAttack) MinPower() Power { return LocationOblivious }

// runAttackHistory drives both attacks and their scan oracles through one
// random history of hand-built location-oblivious views and fails at the
// first step where a pair disagrees. The history has what real executions
// have: conciliator rounds in which most processes are poised to
// probabilistically write (sometimes all of them, which triggers pool
// releases), writes that land in memory and start the endgame, processes
// that halt for good, and process counts spanning several bitset words.
func runAttackHistory(t *testing.T, seed uint64, cov *attackCoverage) {
	t.Helper()
	rng := xrand.New(seed)
	ns := []int{1, 2, 3, 8, 63, 64, 65, 130}
	n := ns[rng.Intn(len(ns))]
	const cells, steps = 3, 400
	mem := make([]value.Value, cells)
	for i := range mem {
		mem[i] = value.None
	}
	v := &View{Power: LocationOblivious, N: n, Pending: make([]Op, n), Memory: mem,
		Changed: -1, ChangedFrom: value.None}
	alive := make([]bool, n)
	for pid := range alive {
		alive[pid] = true
	}
	aliveN := n

	fm, fmOracle := NewFirstMoverAttack(), &scanFirstMoverAttack{cov: cov, endgame: scanEndgame{cov: cov}}
	ew, ewOracle := NewEagerWriteAttack(), &scanEagerWriteAttack{}
	for _, s := range []Scheduler{fm, fmOracle, ew, ewOracle} {
		s.Seed(nil)
	}
	round, full := false, false
	for step := 0; step < steps; step++ {
		// Halt a process now and then (never the last one).
		if aliveN > 1 && rng.Intn(25) == 0 {
			pid := rng.Intn(n)
			if alive[pid] {
				alive[pid] = false
				aliveN--
			}
		}
		if rng.Intn(15) == 0 {
			round = !round
		}
		full = round && rng.Intn(3) == 0
		v.Runnable = v.Runnable[:0]
		for pid := range v.Pending {
			if !alive[pid] {
				v.Pending[pid] = Op{}
				continue
			}
			v.Runnable = append(v.Runnable, pid)
			kinds := []OpKind{OpRead, OpWrite, OpCollect}
			op := Op{Valid: true, Kind: kinds[rng.Intn(len(kinds))], Reg: -1, Val: value.None}
			if op.Kind == OpWrite {
				op.Val = value.Value(rng.Intn(3))
			}
			if full || (round && rng.Intn(3) > 0) {
				op = Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: value.Value(rng.Intn(3)), ProbNum: 1, ProbDen: 2}
			}
			v.Pending[pid] = op
		}
		v.Step = step
		v.IndexKinds()

		got, want := fm.Next(v), fmOracle.Next(v)
		if got != want {
			t.Fatalf("seed %d n=%d step %d: FirstMoverAttack chose %d, scan oracle %d", seed, n, step, got, want)
		}
		if g, w := ew.Next(v), ewOracle.Next(v); g != w {
			t.Fatalf("seed %d n=%d step %d: EagerWriteAttack chose %d, scan oracle %d", seed, n, step, g, w)
		}

		// The chosen operation takes effect: a probabilistic write lands
		// half the time, a write always; either changes at most one cell.
		v.Changed, v.ChangedFrom = -1, value.None
		op := v.Pending[got]
		cell := -1
		switch {
		case op.Kind == OpProbWrite && rng.Bool(), op.Kind == OpWrite:
			cell = rng.Intn(cells)
		case rng.Intn(30) == 0:
			// Another register changes (or is cleared) without a landed
			// write of this round, as when the protocol moves on.
			cell = rng.Intn(cells)
			op.Val = value.None
			if rng.Bool() {
				op.Val = value.Value(rng.Intn(3))
			}
		}
		if cell >= 0 && mem[cell] != op.Val {
			v.Changed, v.ChangedFrom = register.Reg(cell), mem[cell]
			mem[cell] = op.Val
		}
	}
}

func TestAttacksMatchScanOracle(t *testing.T) {
	var cov attackCoverage
	for seed := uint64(1); seed <= 400; seed++ {
		runAttackHistory(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.releases == 0 || cov.releaseTies == 0 || cov.releaseSkips == 0 || cov.fires == 0 ||
		cov.fireAvoids == 0 || cov.fireSkips == 0 || cov.endgames == 0 || cov.neutral == 0 || cov.pool == 0 {
		t.Fatalf("histories missed a case: %+v", cov)
	}
}

// TestAttemptLevelsGrow: a pid whose count outgrows the levels' buffer
// moves the buffer, and the order "fewest attempts, lowest pid" survives it.
func TestAttemptLevelsGrow(t *testing.T) {
	const n = 3
	v := &View{N: n, Runnable: []int{0, 1, 2}, Pending: make([]Op, n)}
	for pid := range v.Pending {
		v.Pending[pid] = Op{Valid: true, Kind: OpProbWrite, Val: 1}
	}
	v.IndexKinds()
	only0 := &PidSet{Words: []uint64{1}, Count: 1}
	var l attemptLevels
	for i := 0; i < 40; i++ {
		if pid := l.pick(v, only0, value.None); pid != 0 {
			t.Fatalf("pick %d among {0} chose %d", i, pid)
		}
	}
	if len(l.levels) <= 8 {
		t.Fatalf("levels hold %d words after 40 attempts by pid 0, want them grown", len(l.levels))
	}
	// pid 0 has 40 attempts, pids 1 and 2 none: 1 wins, then 2, then 1.
	for i, want := range []int{1, 2, 1, 2} {
		if pid := l.pick(v, &v.Kinds[OpProbWrite], value.None); pid != want {
			t.Fatalf("pick %d chose %d, want %d", i, pid, want)
		}
	}
	l.reset()
	if pid := l.pick(v, &v.Kinds[OpProbWrite], value.None); pid != 0 {
		t.Fatalf("after reset chose %d, want 0", pid)
	}
}
