package check

import (
	"fmt"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

func vals(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.Value(x)
	}
	return out
}

func TestAgreement(t *testing.T) {
	if err := Agreement(vals(3, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := Agreement(nil); err != nil {
		t.Fatal("empty outputs must pass")
	}
	if err := Agreement(vals(3, 4)); err == nil {
		t.Fatal("expected agreement violation")
	}
}

func TestValidity(t *testing.T) {
	if err := Validity(vals(1, 2, 3), vals(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := Validity(vals(1, 2), vals(5)); err == nil {
		t.Fatal("expected validity violation")
	}
	if err := Validity(vals(1), nil); err != nil {
		t.Fatal("empty outputs must pass")
	}
}

func TestConsensus(t *testing.T) {
	if err := Consensus(vals(0, 1), vals(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Consensus(vals(0, 1), vals(0, 1)); err == nil {
		t.Fatal("expected failure (disagreement)")
	}
	if err := Consensus(vals(0, 1), vals(2, 2)); err == nil {
		t.Fatal("expected failure (invalid)")
	}
}

func mkTrace(events ...trace.Event) *trace.Log {
	l := trace.New()
	for _, e := range events {
		l.Append(e)
	}
	return l
}

func inv(pid int, label string, v value.Value) trace.Event {
	return trace.Event{Step: -1, PID: pid, Kind: trace.Invoke, Label: label, Val: v}
}

func ret(pid int, label string, d bool, v value.Value) trace.Event {
	return trace.Event{Step: -1, PID: pid, Kind: trace.Return, Label: label, Decided: d, Val: v}
}

func TestObjectsValidityViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "R1", 3), ret(0, "R1", false, 4),
	)
	err := Objects(log, "")
	if err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectsCoherenceViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "X", 1), inv(1, "X", 2),
		ret(0, "X", true, 1), ret(1, "X", false, 2),
	)
	err := Objects(log, "")
	if err == nil || !strings.Contains(err.Error(), "coherence") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectsTwoDecisionsViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "X", 1), inv(1, "X", 2),
		ret(0, "X", true, 1), ret(1, "X", true, 2),
	)
	if err := Objects(log, ""); err == nil {
		t.Fatal("expected coherence violation")
	}
}

func TestObjectsAcceptanceViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "R2", 5), inv(1, "R2", 5),
		ret(0, "R2", true, 5), ret(1, "R2", false, 5),
	)
	err := Objects(log, "R")
	if err == nil || !strings.Contains(err.Error(), "acceptance") {
		t.Fatalf("err = %v", err)
	}
	// Without the ratifier prefix, acceptance is not required.
	if err := Objects(log, ""); err != nil {
		t.Fatalf("non-ratifier check failed: %v", err)
	}
}

func TestObjectsAcceptanceNotAppliedToConciliators(t *testing.T) {
	// A conciliator ("C1") with unanimous inputs returning (0, v) is fine.
	log := mkTrace(
		inv(0, "C1", 5), inv(1, "C1", 5),
		ret(0, "C1", false, 5), ret(1, "C1", false, 5),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestObjectsHealthyComposition(t *testing.T) {
	log := mkTrace(
		inv(0, "C1", 1), ret(0, "C1", false, 2), inv(1, "C1", 2), ret(1, "C1", false, 2),
		inv(0, "R1", 2), ret(0, "R1", true, 2), inv(1, "R1", 2), ret(1, "R1", true, 2),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestObjectsMixedInputRatifierNoDecisionOK(t *testing.T) {
	log := mkTrace(
		inv(0, "R-1", 0), inv(1, "R-1", 1),
		ret(0, "R-1", false, 0), ret(1, "R-1", false, 0),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestIsRatifierLabelMatching(t *testing.T) {
	cases := map[string]bool{
		"R1": true, "R-1": true, "R12": true,
		"RC1": false, "R": false, "C1": false, "Rx": false, "R-": false,
	}
	for label, want := range cases {
		if got := isRatifier(label, "R"); got != want {
			t.Errorf("isRatifier(%q) = %v, want %v", label, got, want)
		}
	}
	if !isRatifier("RC3", "RC") {
		t.Error("isRatifier(RC3, RC) = false")
	}
}

func TestIndividualWorkBound(t *testing.T) {
	if err := IndividualWorkBound([]int{1, 2, 3}, 3); err != nil {
		t.Fatal(err)
	}
	if err := IndividualWorkBound([]int{1, 5}, 4); err == nil {
		t.Fatal("expected bound violation")
	}
}

func TestUnanimous(t *testing.T) {
	if Unanimous(nil) {
		t.Fatal("empty is not unanimous")
	}
	if !Unanimous(vals(2, 2, 2)) {
		t.Fatal("all-2 is unanimous")
	}
	if Unanimous(vals(2, 3)) {
		t.Fatal("2,3 is not unanimous")
	}
}

func TestWorkAccounting(t *testing.T) {
	if err := WorkAccounting([]int{3, 0, 4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := WorkAccounting(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := WorkAccounting([]int{3, 4}, 8); err == nil {
		t.Fatal("expected sum mismatch")
	}
	if err := WorkAccounting([]int{-1, 2}, 1); err == nil {
		t.Fatal("expected negative-work error")
	}
}

func TestMonitor(t *testing.T) {
	m := NewMonitor(vals(0, 1))
	if err := m.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(2, 1); err != nil {
		t.Fatal(err)
	}
	err := m.Observe(1, 0)
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("err = %v, want an agreement violation", err)
	}
	if m.Err() != err {
		t.Fatalf("Err() = %v, want the first violation %v", m.Err(), err)
	}
	if m.Observe(3, 7) != err {
		t.Fatal("a later violation replaced the first")
	}

	m = NewMonitor(vals(4))
	if err := m.Observe(0, 5); err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("err = %v, want a validity violation", err)
	}
}

// TestMonitorReset pins the in-place rewind pooled sessions use: after
// Reset a monitor that saw a violation behaves exactly like a fresh one for
// the new inputs — no error, no remembered decision, and the old inputs no
// longer valid.
func TestMonitorReset(t *testing.T) {
	m := NewMonitor(vals(0, 1))
	m.Observe(0, 1)
	m.Observe(1, 0)
	if m.Err() == nil {
		t.Fatal("setup: expected an agreement violation")
	}

	m.Reset(vals(2, 3))
	if err := m.Err(); err != nil {
		t.Fatalf("Err() after Reset = %v, want nil", err)
	}
	if err := m.Observe(0, 3); err != nil {
		t.Fatalf("first decision after Reset: %v (the old decision was remembered)", err)
	}
	if err := m.Observe(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(2, 2); err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("err = %v, want an agreement violation against the post-Reset decision", err)
	}

	m.Reset(vals(2, 3))
	if err := m.Observe(0, 1); err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("err = %v, want a validity violation: 1 is not among the reset inputs", err)
	}
}

// consensusReference is the map-based Consensus this package shipped before
// the linear scan: Agreement, then a Validity that builds an input set.
func consensusReference(inputs, outputs []value.Value) error {
	if err := Agreement(outputs); err != nil {
		return err
	}
	in := make(map[value.Value]bool, len(inputs))
	for _, v := range inputs {
		in[v] = true
	}
	for i, v := range outputs {
		if !in[v] {
			return fmt.Errorf("check: validity violated: output[%d]=%s is nobody's input %v", i, v, inputs)
		}
	}
	return nil
}

// TestConsensusMatchesReference pins Consensus and DecidedConsensus to the
// reference's verdicts and messages on random executions: empty and
// single-process runs, ⊥ and out-of-range values on either side, and
// random decided masks (DecidedConsensus must behave as Consensus on the
// compacted decided outputs).
func TestConsensusMatchesReference(t *testing.T) {
	src := xrand.New(7)
	pick := func() value.Value {
		if src.Intn(8) == 0 {
			return value.None
		}
		return value.Value(src.Intn(5) - 1) // -1 and 3 are out of range for m = 3
	}
	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for trial := range 20000 {
		n := src.Intn(6) // includes n = 0 and n = 1
		inputs, outputs, decided := make([]value.Value, n), make([]value.Value, n), make([]bool, n)
		agreed := pick()
		var compact []value.Value
		for i := range n {
			inputs[i] = pick()
			outputs[i] = agreed
			if src.Intn(4) == 0 {
				outputs[i] = pick()
			}
			decided[i] = src.Intn(3) != 0
			if decided[i] {
				compact = append(compact, outputs[i])
			}
		}
		if got, want := errString(Consensus(inputs, outputs)), errString(consensusReference(inputs, outputs)); got != want {
			t.Fatalf("trial %d: Consensus(%v, %v) = %s, reference %s", trial, inputs, outputs, got, want)
		}
		if got, want := errString(DecidedConsensus(inputs, outputs, decided)), errString(consensusReference(inputs, compact)); got != want {
			t.Fatalf("trial %d: DecidedConsensus(%v, %v, %v) = %s, reference %s", trial, inputs, outputs, decided, got, want)
		}
	}
}

// TestConsensusAllocFree pins the safe-path checks at zero allocations.
func TestConsensusAllocFree(t *testing.T) {
	inputs, outputs := vals(0, 1, 1, 0, 2), vals(1, 1, 1, 1, 1)
	decided := []bool{true, false, true, true, false}
	allocs := testing.AllocsPerRun(100, func() {
		if Consensus(inputs, outputs) != nil || DecidedConsensus(inputs, outputs, decided) != nil {
			t.Fatal("safe execution reported unsafe")
		}
	})
	if allocs != 0 {
		t.Errorf("Consensus + DecidedConsensus: %v allocations per run, want 0", allocs)
	}
}
