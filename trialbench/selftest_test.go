package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks a workload to a few trials per chunk.
func tiny(t *testing.T, name string, seed uint64) *cell {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.batch, w.chunks = 4, 2
	c, err := newCell(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics fails unless got holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, d.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, declared %d", what, len(got), len(want))
	}
}

// TestEveryMetricPrinted runs every declared workload at tiny scale, untraced
// and traced, and checks that each prints every declared metric with its
// unit, that no trial fails, and that the deterministic counts agree
// between the two runs.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			c := tiny(t, sw.Name, 7)
			e2e := runEndToEnd(c, 20*time.Millisecond)
			if e2e.failed > 0 {
				t.Fatalf("untraced run: %d of %d trials failed: %v", e2e.failed, e2e.attempted, e2e.firstErr)
			}
			checkMetrics(t, "untraced", e2e.metrics, spec.EndToEnd)

			traced, err := runLadder(c, 20*time.Millisecond, filepath.Join(t.TempDir(), "run"), "")
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed > 0 {
				t.Fatalf("traced run: %d of %d trials failed: %v", traced.failed, traced.attempted, traced.firstErr)
			}
			checkMetrics(t, "traced", traced.metrics, spec.PerLayer)
			if traced.counts.Digest != e2e.counts.Digest {
				t.Errorf("deterministic counts differ between runs: %+v vs %+v", traced.counts, e2e.counts)
			}
		})
	}
}

// TestSkewedRungTripsCheck feeds each protocol rung of the ladder the next
// root seed in turn and checks that the consistency check counts the rung's
// trials as failed. The bare loop is left out: it replays each process's
// reference work, so its total work is the same under any seed.
func TestSkewedRungTripsCheck(t *testing.T) {
	c := tiny(t, "sweep-n2", 3)
	for _, rung := range []string{rungExec, rungHarness, rungModcon} {
		m, err := runLadder(c, time.Millisecond, filepath.Join(t.TempDir(), "run"), rung)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed == 0 {
			t.Errorf("rung %s ran other seeds, yet no trial failed", rung)
		}
	}
}

func TestBucket(t *testing.T) {
	const traces = `File: trialbench.bin
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.coroswitch_m
             runtime.mcall
             github.com/modular-consensus/modcon/internal/sim.(*Engine).step
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             fmt.Sprintf
             github.com/modular-consensus/modcon/internal/ratifier.New
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got := bucket(traces)
	want := map[string]float64{
		"cpu.coroswitch_share": 0.6, "cpu.sim_share": 0.6, "cpu.fmt_share": 0.2,
		"cpu.gc_share": 0.2, "cpu.ratifier_share": 0, "cpu.sched_share": 0,
		"cpu.conciliator_share": 0, "cpu.harness_share": 0,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
