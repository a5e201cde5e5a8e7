package core

import (
	"cmp"
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// This file is the decision record of the indexed core: an opt-in capture
// that sees, for every ITQ iteration, what the solver saw at the moment it
// committed — the full EFT candidate vector, the winning estimate, the
// queue membership and penalty values, and whether the placement landed in
// an idle gap or materialised an entry duplicate. Three outputs derive from
// it: the explain report (ScheduleExplained), the Table-I Step trace
// (ScheduleTrace, with the ITQ snapshot uncapped), and the tracer's decision
// stream (any solve of a traced problem). Untraced solves pass a nil
// capture and pay a single pointer test per iteration (the record method is
// a plain non-hotpath call, so the zero-alloc steady state of runIndexed is
// untouched — pinned by TestScheduleIntoZeroAllocs).

// itqCaptureCap bounds the per-decision ITQ snapshot and the EvPV events
// per iteration. Wider frontiers keep their top entries by (PV descending,
// task ascending) — the solver's own selection order — and ITQWidth still
// reports the true size.
const itqCaptureCap = 32

// ITQItem is one queued task in a decision's ITQ snapshot.
type ITQItem struct {
	// Task is the queued task (normalised problem IDs).
	Task dag.TaskID `json:"task"`
	// PV is the task's penalty value at the moment of the decision.
	PV float64 `json:"pv"`
}

// Decision is the full rationale of one ITQ iteration: why this task, why
// this processor. Task IDs refer to the normalised problem (pseudo
// entry/exit tasks included on multi-entry/exit workflows).
type Decision struct {
	// Iter is the 1-based ITQ iteration ordinal.
	Iter int `json:"iter"`
	// Task is the committed task.
	Task dag.TaskID `json:"task"`
	// PV is the committed task's penalty value — the maximum over the ITQ,
	// ties broken to the smaller task ID.
	PV float64 `json:"pv"`
	// ITQWidth is the queue size at the decision (before removal).
	ITQWidth int `json:"itq_width"`
	// ITQ snapshots the queue membership, ascending by task ID, truncated
	// to itqCaptureCap by selection priority when wider.
	ITQ []ITQItem `json:"itq,omitempty"`
	// EFT is the candidate earliest-finish-time vector by processor — what
	// the solver compared to pick Proc.
	EFT []float64 `json:"eft"`
	// EST and the winning EFT (EFT[Proc]) delimit the committed slot.
	EST float64 `json:"est"`
	// Proc is the chosen processor (minimum EFT, or best lookahead score).
	Proc platform.Proc `json:"proc"`
	// Slotted reports insertion-based placement into an idle gap: the slot
	// starts before the processor's append point did at commit time. Always
	// false under the paper's avail-based placement.
	Slotted bool `json:"slotted"`
	// Duplicated reports that the commit materialised an entry duplicate on
	// Proc; DupTask is the duplicated entry task when it did.
	Duplicated bool       `json:"duplicated"`
	DupTask    dag.TaskID `json:"dup_task,omitempty"`
}

// capture receives every decision of one runIndexed solve.
type capture struct {
	// tr, when set, receives the decision stream: per iteration one EvPV
	// per top-itqCaptureCap queue entry in selection order, then one
	// EvIteration. EvCommit events come from sched.Commit.
	tr obs.Tracer
	// keep retains every Decision; a tracer-only capture keeps none.
	keep bool
	// fullITQ snapshots the whole queue instead of its top entries (the
	// Table-I trace lists every ready task).
	fullITQ bool
	// top is the reused top-k scratch, in selection order.
	top       []ITQItem
	decisions []Decision
}

// before is the solver's selection order: higher PV first, ties to the
// smaller task ID.
func before(x, y ITQItem) bool {
	return x.PV > y.PV || (x.PV == y.PV && x.Task < y.Task)
}

// topK fills c.top with the queue's itqCaptureCap first entries in
// selection order: one pass over the live rows with an insertion bounded
// by the cap, so a wide frontier costs time linear in |ITQ| rather than a
// full sort.
func (c *capture) topK(a *arena) []ITQItem {
	top := c.top[:0]
	for _, r := range a.live {
		it := ITQItem{Task: dag.TaskID(a.taskOf[r]), PV: a.pv[r]}
		if len(top) == itqCaptureCap {
			if !before(it, top[itqCaptureCap-1]) {
				continue
			}
			top = top[:itqCaptureCap-1]
		}
		i := len(top)
		top = append(top, it)
		for ; i > 0 && before(it, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = it
	}
	c.top = top
	return top
}

// record observes one commit. Called with the arena's row state still
// current for the selected task and before the commit mutates processor
// availability. Not a hot-path function: it only runs on traced, explain
// and Table-I solves, and may allocate when it keeps decisions.
func (c *capture) record(a *arena, t dag.TaskID, row int32, best sched.Estimate, iter uint32) {
	top := c.topK(a)
	if c.tr != nil {
		for _, it := range top {
			c.tr.Emit(obs.Event{Type: obs.EvPV, Task: int(it.Task), Proc: -1, Iter: int(iter), Value: it.PV})
		}
		c.tr.Emit(obs.Event{
			Type: obs.EvIteration, Task: int(t), Proc: int(best.Proc),
			Iter: int(iter), Value: a.pv[row], Dup: best.UseDuplicate,
		})
	}
	if !c.keep {
		return
	}
	np := a.np
	base := int(row) * np
	d := Decision{
		Iter:     int(iter),
		Task:     t,
		PV:       a.pv[row],
		ITQWidth: len(a.live),
		EFT:      append([]float64(nil), a.eftM[base:base+np]...),
		EST:      best.EST,
		Proc:     best.Proc,
		Slotted:  best.EST < a.s.Avail(best.Proc),
	}
	if best.UseDuplicate {
		d.Duplicated = true
		d.DupTask = best.DupTask
	}
	if c.fullITQ {
		d.ITQ = make([]ITQItem, len(a.live))
		for i, r := range a.live {
			d.ITQ[i] = ITQItem{Task: dag.TaskID(a.taskOf[r]), PV: a.pv[r]}
		}
	} else {
		d.ITQ = slices.Clone(top)
	}
	slices.SortFunc(d.ITQ, func(x, y ITQItem) int { return cmp.Compare(x.Task, y.Task) })
	c.decisions = append(c.decisions, d)
}

// step is the Table-I view of a decision.
func (d *Decision) step() Step {
	st := Step{
		Ready:      make([]dag.TaskID, len(d.ITQ)),
		PV:         make([]float64, len(d.ITQ)),
		Selected:   d.Task,
		EFT:        d.EFT,
		Proc:       d.Proc,
		Duplicated: d.Duplicated,
	}
	for i, it := range d.ITQ {
		st.Ready[i], st.PV[i] = it.Task, it.PV
	}
	return st
}

// ScheduleExplained is Schedule plus the per-iteration decision log the
// explain surfaces are built from. A traced problem's tracer receives the
// same decision stream as under Schedule, and the schedule is bit-identical
// to Schedule's (differentially tested in TestIndexedMatchesReferenceBytes).
func (h *HDLTS) ScheduleExplained(pr *sched.Problem) (*sched.Schedule, []Decision, error) {
	capt := &capture{keep: true}
	s, err := h.run(pr, nil, capt)
	if err != nil {
		return nil, nil, err
	}
	return s, capt.decisions, nil
}
