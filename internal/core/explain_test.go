package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hdlts/internal/gen"
	"hdlts/internal/sched"
)

// TestScheduleExplainedInvariants checks the captured rationale against the
// solver's own contracts on random problems: one decision per normalised
// task, candidate vectors of platform width, the winning EFT the vector
// minimum (paper configuration), the committed PV the queue maximum, and
// the ITQ snapshot sorted with the winner present.
func TestScheduleExplainedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		h := New()
		s, decs, err := h.ScheduleExplained(pr)
		if err != nil {
			t.Fatal(err)
		}
		npr := pr.Normalize()
		n, np := npr.NumTasks(), npr.NumProcs()
		if len(decs) != n {
			t.Fatalf("problem %d: %d decisions for %d tasks", i, len(decs), n)
		}
		for k, d := range decs {
			if d.Iter != k+1 {
				t.Fatalf("problem %d: decision %d has iter %d", i, k, d.Iter)
			}
			if len(d.EFT) != np {
				t.Fatalf("problem %d iter %d: EFT width %d, want %d", i, d.Iter, len(d.EFT), np)
			}
			winning := d.EFT[d.Proc]
			for q, eft := range d.EFT {
				if eft < winning {
					t.Fatalf("problem %d iter %d: P%d EFT %g beats committed P%d EFT %g",
						i, d.Iter, q+1, eft, int(d.Proc)+1, winning)
				}
			}
			if d.EST > winning {
				t.Fatalf("problem %d iter %d: EST %g > EFT %g", i, d.Iter, d.EST, winning)
			}
			if d.Slotted {
				t.Fatalf("problem %d iter %d: slotted placement under avail-based policy", i, d.Iter)
			}
			if d.ITQWidth < len(d.ITQ) || len(d.ITQ) == 0 {
				t.Fatalf("problem %d iter %d: ITQ snapshot %d wider than queue %d",
					i, d.Iter, len(d.ITQ), d.ITQWidth)
			}
			found := false
			for k2, it := range d.ITQ {
				if k2 > 0 && d.ITQ[k2-1].Task >= it.Task {
					t.Fatalf("problem %d iter %d: ITQ not sorted by task", i, d.Iter)
				}
				if it.PV > d.PV {
					t.Fatalf("problem %d iter %d: queued task %d PV %g exceeds committed PV %g",
						i, d.Iter, it.Task, it.PV, d.PV)
				}
				if it.Task == d.Task {
					found = true
					if it.PV != d.PV {
						t.Fatalf("problem %d iter %d: committed PV mismatch", i, d.Iter)
					}
				}
			}
			if found == false && d.ITQWidth <= itqCaptureCap {
				t.Fatalf("problem %d iter %d: committed task %d missing from full ITQ snapshot",
					i, d.Iter, d.Task)
			}
			pl, ok := s.PlacementOf(d.Task)
			if !ok || pl.Proc != d.Proc {
				t.Fatalf("problem %d iter %d: schedule places task %d elsewhere", i, d.Iter, d.Task)
			}
		}
	}
}

// TestScheduleExplainedMatchesTrace cross-checks the capture against the
// full-recompute oracle's Table-I trace: same selection sequence, same
// penalty values, same processors, same duplication decisions, and
// bit-identical ready sets, PVs and EFT vectors — in full for ScheduleTrace
// and as the oracle's top-itqCaptureCap entries for ScheduleExplained. The
// last input is a wide problem whose ITQ outgrows the snapshot cap.
func TestScheduleExplainedMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var problems []*sched.Problem
	for i := 0; i < 20; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, pr)
	}
	problems = append(problems, wideProblem(t))
	for i, pr := range problems {
		h := New()
		_, decs, err := h.ScheduleExplained(pr)
		if err != nil {
			t.Fatal(err)
		}
		_, traced, err := h.ScheduleTrace(pr)
		if err != nil {
			t.Fatal(err)
		}
		_, steps, err := referenceSchedule(h, pr)
		if err != nil {
			t.Fatal(err)
		}
		if len(decs) != len(steps) || len(traced) != len(steps) {
			t.Fatalf("problem %d: %d decisions and %d trace steps vs %d oracle steps",
				i, len(decs), len(traced), len(steps))
		}
		for k, st := range steps {
			if decs[k].Task != st.Selected {
				t.Fatalf("problem %d iter %d: selected %d vs oracle %d",
					i, k+1, decs[k].Task, st.Selected)
			}
			if decs[k].Proc != st.Proc {
				t.Fatalf("problem %d iter %d: proc %d vs oracle %d",
					i, k+1, decs[k].Proc, st.Proc)
			}
			if decs[k].Duplicated != st.Duplicated {
				t.Fatalf("problem %d iter %d: duplication mismatch", i, k+1)
			}
			if decs[k].ITQWidth != len(st.Ready) {
				t.Fatalf("problem %d iter %d: ITQ width %d vs oracle %d",
					i, k+1, decs[k].ITQWidth, len(st.Ready))
			}
			if !reflect.DeepEqual(traced[k], st) {
				t.Fatalf("problem %d iter %d: trace step %+v differs from oracle %+v", i, k+1, traced[k], st)
			}
			if !reflect.DeepEqual(decs[k].EFT, st.EFT) {
				t.Fatalf("problem %d iter %d: EFT %v vs oracle %v", i, k+1, decs[k].EFT, st.EFT)
			}
			want := make([]ITQItem, len(st.Ready))
			for j, task := range st.Ready {
				want[j] = ITQItem{Task: task, PV: st.PV[j]}
			}
			if len(want) > itqCaptureCap {
				slices.SortFunc(want, func(x, y ITQItem) int {
					if before(x, y) {
						return -1
					}
					return 1
				})
				want = want[:itqCaptureCap]
				slices.SortFunc(want, func(x, y ITQItem) int { return int(x.Task) - int(y.Task) })
			}
			if !reflect.DeepEqual(decs[k].ITQ, want) {
				t.Fatalf("problem %d iter %d: ITQ snapshot %v vs oracle %v", i, k+1, decs[k].ITQ, want)
			}
		}
	}
}

// wideProblem is a fixed random workflow whose ITQ grows well past
// itqCaptureCap, so the capped snapshot and event paths are exercised.
func wideProblem(t *testing.T) *sched.Problem {
	t.Helper()
	pr, err := gen.Random(gen.Params{
		V: 300, Alpha: 2.5, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestScheduleExplainedDeterministic pins the byte-determinism the CI smoke
// step asserts end-to-end: two explain solves of the same problem must
// marshal to identical JSON.
func TestScheduleExplainedDeterministic(t *testing.T) {
	pr, err := gen.Random(gen.Params{
		V: 400, Alpha: 1.5, Density: 3, CCR: 2, Procs: 6, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	_, d1, err := h.ScheduleExplained(pr)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := h.ScheduleExplained(pr)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("explain decisions differ across identical solves")
	}
}
