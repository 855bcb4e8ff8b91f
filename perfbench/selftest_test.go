package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/experiments"
)

// tiny runs a shrunken workload for the self-test.
func tiny(t *testing.T, workload string, traced bool, plant string) (result, *report) {
	t.Helper()
	cfg := config{seed: 7, seconds: 0.2, out: t.TempDir(), tiny: true, plant: plant}
	if traced {
		cfg.tr = newTracer()
	}
	res, rep, err := runOnce(workload, cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, rep
}

// TestMetricsEmitted checks that every workload, traced and untraced,
// emits exactly the declared metrics with their units, and passes its
// output checks with no failed op.
func TestMetricsEmitted(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, rep := tiny(t, name, traced, "")
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m[0]]
				if !ok || got.Unit != m[1] {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m[0], got, m[1])
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares the workloads
// and metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s not declared", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, got []metricDecl, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m[0] || got[i].Unit != m[1] {
				t.Errorf("%s[%d]: declared %s %s, emitted %s %s", kind, i, got[i].Name, got[i].Unit, m[0], m[1])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

// TestPlantedWALFailure: failing WAL appends must count as failed ops.
func TestPlantedWALFailure(t *testing.T) {
	res, _ := tiny(t, "admit-100k", false, "wal")
	if res.Failed == 0 || res.Correct {
		t.Errorf("WAL append failures not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
	t.Logf("planted WAL failures: %d of %d ops failed", res.Failed, res.Attempted)
}

// TestPlantedUnpaced: deployed without Silo (plain TCP on locality
// placement), class-A messages miss M/Bmax + d and the run fails.
func TestPlantedUnpaced(t *testing.T) {
	p := defaultDC(false)
	p.scheme = experiments.SchemeTCP
	var late, msgs int64
	for sub := uint64(0); sub < 8 && late == 0; sub++ {
		r, err := setupDC(p, sub, planeStandard, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.simulate(nil)
		late += r.late
		msgs += r.submitted
	}
	if late == 0 {
		t.Errorf("no late class-A message among %d unpaced messages", msgs)
	}
	t.Logf("unpaced: %d late of %d messages", late, msgs)
	res, _ := tiny(t, "dc-paced", false, "unpaced")
	if res.Correct {
		t.Errorf("unpaced run passed its checks: failed=%d of %d", res.Failed, res.Attempted)
	}
}

// TestFabricMatchesSequential: the island engine at any worker count
// must reproduce the sequential engine's outcome on the same inputs.
func TestFabricMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		p := defaultFabric(seed == 1) // tiny, then full size
		seq, err := setupFabric(p, seed, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq.simulate(nil)
		want := seq.summary()
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			par, err := setupFabric(p, seed, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			par.simulate(nil)
			if got := par.summary(); got != want {
				t.Errorf("seed %d workers %d: digest %016x, sequential %016x", seed, w, digestOf(got), digestOf(want))
			}
			if par.delivered() != par.injected {
				t.Errorf("seed %d workers %d: delivered %d of %d", seed, w, par.delivered(), par.injected)
			}
		}
	}
}
