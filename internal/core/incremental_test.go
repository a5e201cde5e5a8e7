package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdlts/internal/dag"
	"hdlts/internal/gen"
)

// TestQuickIncrementalMatchesFullRecompute differentially tests the
// incremental EFT maintenance against the paper's literal full-recompute
// loop: for arbitrary problems and every option combination, both paths
// must produce bit-identical schedules (same placements, same makespan,
// same trace decisions).
func TestQuickIncrementalMatchesFullRecompute(t *testing.T) {
	optionSets := []Options{
		{},
		{DisableDuplication: true},
		{Insertion: true},
		{Lookahead: true},
		{PopulationSigma: true, Insertion: true},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr, err := randomProblem(rng)
		if err != nil {
			return false
		}
		for _, o := range optionSets {
			inc := &HDLTS{opts: o}
			si, stepsI, err := inc.ScheduleTrace(pr)
			if err != nil {
				t.Logf("incremental: %v", err)
				return false
			}
			sf, stepsF, err := referenceSchedule(inc, pr)
			if err != nil {
				t.Logf("full: %v", err)
				return false
			}
			if si.Makespan() != sf.Makespan() {
				t.Logf("opts %+v: makespan %g vs %g", o, si.Makespan(), sf.Makespan())
				return false
			}
			if len(stepsI) != len(stepsF) {
				return false
			}
			for k := range stepsI {
				if stepsI[k].Selected != stepsF[k].Selected || stepsI[k].Proc != stepsF[k].Proc {
					t.Logf("opts %+v step %d: (%d,P%d) vs (%d,P%d)", o, k,
						stepsI[k].Selected, stepsI[k].Proc+1, stepsF[k].Selected, stepsF[k].Proc+1)
					return false
				}
				for p := range stepsI[k].EFT {
					if stepsI[k].EFT[p] != stepsF[k].EFT[p] {
						t.Logf("opts %+v step %d: EFT[%d] %g vs %g", o, k, p, stepsI[k].EFT[p], stepsF[k].EFT[p])
						return false
					}
				}
			}
			for task := 0; task < si.Problem().NumTasks(); task++ {
				pi, _ := si.PlacementOf(dag.TaskID(task))
				pf, _ := sf.PlacementOf(dag.TaskID(task))
				if pi != pf {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalTableI: the incremental path (the default) must still
// reproduce the golden makespan — already covered by TestTableI, asserted
// here against the full-recompute oracle too.
func TestIncrementalTableI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_ = rng
	pr, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 3, Procs: 8, WDAG: 80, Beta: 1.2}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New().Schedule(pr)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := referenceSchedule(New(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Makespan() != full.Makespan() {
		t.Fatalf("makespans diverge: %g vs %g", inc.Makespan(), full.Makespan())
	}
}

// BenchmarkIncrementalVsFull quantifies the speedup of the indexed core
// over the full-recompute oracle on a 300-task / 8-processor workload.
func BenchmarkIncrementalVsFull(b *testing.B) {
	pr, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 3, Procs: 8, WDAG: 80, Beta: 1.2}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		h := New()
		for i := 0; i < b.N; i++ {
			if _, err := h.Schedule(pr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		h := New()
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceSchedule(h, pr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
