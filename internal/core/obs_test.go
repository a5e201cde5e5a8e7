package core

import (
	"testing"

	"hdlts/internal/obs"
	"hdlts/internal/workflows"
)

// TestTracerEventStream checks that an HDLTS run against a traced problem
// emits the generalised Table-I stream: per-iteration PV and selection
// events plus one commit per placement, and that the event trace agrees
// with the structured Step trace. PV events are capped per iteration at
// the decision snapshot's width.
func TestTracerEventStream(t *testing.T) {
	col := obs.NewCollector()
	pr := workflows.PaperExample().WithTracer(obs.Named(col, "HDLTS"))

	s, steps, err := New().ScheduleTrace(pr)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 73 {
		t.Fatalf("makespan = %g, want 73", s.Makespan())
	}

	var iters, pvs, commits, dupCommits int
	maxFinish := 0.0
	for _, ev := range col.Events() {
		if ev.Alg != "HDLTS" {
			t.Fatalf("event not stamped with algorithm: %+v", ev)
		}
		switch ev.Type {
		case obs.EvIteration:
			iters++
			st := steps[ev.Iter-1]
			if int(st.Selected) != ev.Task || int(st.Proc) != ev.Proc {
				t.Errorf("iteration %d event (T%d, P%d) disagrees with Step (T%d, P%d)",
					ev.Iter, ev.Task+1, ev.Proc+1, st.Selected+1, st.Proc+1)
			}
		case obs.EvPV:
			pvs++
		case obs.EvCommit:
			commits++
			if ev.Dup {
				dupCommits++
			}
			if ev.Finish > maxFinish {
				maxFinish = ev.Finish
			}
		}
	}
	if iters != len(steps) {
		t.Errorf("iteration events = %d, want %d", iters, len(steps))
	}
	// One PV event per ready task per iteration.
	wantPVs := 0
	for _, st := range steps {
		wantPVs += len(st.Ready)
	}
	if pvs != wantPVs {
		t.Errorf("pv events = %d, want %d", pvs, wantPVs)
	}
	if want := pr.NumTasks() + s.NumDuplicates(); commits != want {
		t.Errorf("commit events = %d, want %d", commits, want)
	}
	if dupCommits != s.NumDuplicates() {
		t.Errorf("duplicate commits = %d, want %d", dupCommits, s.NumDuplicates())
	}
	if maxFinish != 73 {
		t.Errorf("max committed finish = %g, want the makespan 73", maxFinish)
	}

	// A frontier wider than the snapshot cap: each iteration carries
	// min(width, itqCaptureCap) PV events — the queue's head in selection
	// order, led by the selected task — and exactly one iteration event.
	col = obs.NewCollector()
	_, steps, err = New().ScheduleTrace(wideProblem(t).WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	perIter := make([][]obs.Event, len(steps))
	iterEvents := make([]int, len(steps))
	for _, ev := range col.Events() {
		switch ev.Type {
		case obs.EvPV:
			perIter[ev.Iter-1] = append(perIter[ev.Iter-1], ev)
		case obs.EvIteration:
			iterEvents[ev.Iter-1]++
		}
	}
	wide := 0
	for k, st := range steps {
		if len(st.Ready) > itqCaptureCap {
			wide++
		}
		if want := min(len(st.Ready), itqCaptureCap); len(perIter[k]) != want {
			t.Fatalf("iteration %d: %d pv events for ITQ width %d, want %d", k+1, len(perIter[k]), len(st.Ready), want)
		}
		if iterEvents[k] != 1 {
			t.Fatalf("iteration %d: %d iteration events, want 1", k+1, iterEvents[k])
		}
		if perIter[k][0].Task != int(st.Selected) {
			t.Fatalf("iteration %d: first pv event is T%d, want the selected T%d", k+1, perIter[k][0].Task+1, st.Selected+1)
		}
		for j := 1; j < len(perIter[k]); j++ {
			prev, cur := perIter[k][j-1], perIter[k][j]
			if prev.Value < cur.Value || (prev.Value == cur.Value && prev.Task > cur.Task) {
				t.Fatalf("iteration %d: pv events out of selection order at %d", k+1, j)
			}
		}
	}
	if wide == 0 {
		t.Fatal("wide problem never exceeded the snapshot cap")
	}
}

// TestUntracedRunEmitsNothing guards the zero-cost default: scheduling a
// problem without a tracer must not fail or require one.
func TestUntracedRunEmitsNothing(t *testing.T) {
	pr := workflows.PaperExample()
	if pr.Tracer().Enabled() {
		t.Fatal("fresh problem has an enabled tracer")
	}
	if _, err := New().Schedule(pr); err != nil {
		t.Fatal(err)
	}
}
