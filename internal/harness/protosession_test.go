package harness

import (
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// nameProbe wraps an adversary and records the name the register file gives
// register 0 when the execution first consults the adversary: the label a
// trace line or error raised during the run would carry.
type nameProbe struct {
	sched.Scheduler
	file *register.File
	name string
}

func (p *nameProbe) Next(v *sched.View) int {
	if p.name == "" {
		p.name = p.file.Name(0)
	}
	return p.Scheduler.Next(v)
}

// TestProtocolSessionNamesFollowRegisters replays one warm session while an
// owner rewinds the file's register-model label between runs, as the
// public instance pool does: every run must still see its own model's
// names, never the rewound label.
func TestProtocolSessionNamesFollowRegisters(t *testing.T) {
	const n = 4
	file, proto := robustProto(t, n)
	s := NewProtocolSession(proto)
	defer s.Close()
	for i, regs := range []register.Semantics{register.Regular, register.Regular, register.Atomic, register.Interposed, register.Regular} {
		probe := &nameProbe{Scheduler: sched.NewUniformRandom(), file: file}
		if _, err := s.Run(ObjectConfig{N: n, File: file, Inputs: []value.Value{1}, Scheduler: probe, Seed: uint64(i), Registers: regs}); err != nil {
			t.Fatalf("run %d (%v): %v", i, regs, err)
		}
		file.SetSemantics(register.Atomic) // the pool's rewind
		want := register.NewFile()
		want.Alloc1(file.Name(0))
		want.SetSemantics(regs)
		if probe.name != want.Name(0) {
			t.Fatalf("run %d: a %v run saw register 0 as %q, want %q", i, regs, probe.name, want.Name(0))
		}
	}
}

// TestProtocolSessionReplaysOrRebuilds pins when a session is reused: a
// change of adversary, seed or inputs replays the built session; a change
// of any shaping field rebuilds it; an equal fault plan passed as a new
// value replays. Every run matches RunProtocol on a fresh instance.
func TestProtocolSessionReplaysOrRebuilds(t *testing.T) {
	const n = 4
	file, proto := robustProto(t, n)
	s := NewProtocolSession(proto)
	defer s.Close()
	plan := func() *fault.Plan { return fault.New(fault.Crash(1, 4)) }
	steps := []struct {
		name    string
		cfg     ObjectConfig
		rebuild bool
	}{
		{"first", ObjectConfig{Traced: true}, true},
		{"adversary", ObjectConfig{Traced: true, Scheduler: sched.NewSplitVote()}, false},
		{"untraced", ObjectConfig{}, true},
		{"regular", ObjectConfig{Registers: register.Regular}, true},
		{"cheap collect", ObjectConfig{Registers: register.Regular, CheapCollect: true}, true},
		{"max steps", ObjectConfig{Registers: register.Regular, CheapCollect: true, MaxSteps: 1 << 20}, true},
		{"faults", ObjectConfig{Faults: plan()}, true},
		{"equal faults", ObjectConfig{Faults: plan(), Scheduler: sched.NewFirstMoverAttack()}, false},
		{"crash map", ObjectConfig{CrashAfter: map[int]int{1: 4}}, false},
		{"no faults", ObjectConfig{}, true},
	}
	for i, st := range steps {
		cfg := st.cfg
		cfg.N, cfg.File, cfg.Seed = n, file, uint64(i)
		cfg.Inputs = []value.Value{value.Value(i % 2), 1, 0, 1}
		if cfg.Scheduler == nil {
			cfg.Scheduler = sched.NewUniformRandom()
		}
		before := s.ps
		got, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if rebuilt := s.ps != before; rebuilt != st.rebuild {
			t.Fatalf("%s: rebuilt = %v, want %v", st.name, rebuilt, st.rebuild)
		}
		freshFile, freshProto := robustProto(t, n)
		cfg.File = freshFile
		cfg.Scheduler = reflect.New(reflect.TypeOf(cfg.Scheduler).Elem()).Interface().(sched.Scheduler)
		want, err := RunProtocol(freshProto, cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", st.name, err)
		}
		if !reflect.DeepEqual(got.Result.Outputs, want.Result.Outputs) || !reflect.DeepEqual(got.Result.Work, want.Result.Work) ||
			!reflect.DeepEqual(got.Decided, want.Decided) || !reflect.DeepEqual(got.DecidedIdx, want.DecidedIdx) ||
			!reflect.DeepEqual(got.Trace.Events(), want.Trace.Events()) {
			t.Fatalf("%s: warm run differs from a fresh one:\nwarm  %+v %+v\nfresh %+v %+v", st.name, got, got.Result, want, want.Result)
		}
	}
}
