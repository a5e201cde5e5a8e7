package core

import (
	"fmt"
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
)

// referenceSchedule is the differential-testing oracle: the paper's loop
// transcribed literally, with none of the indexed core's machinery. Every
// iteration it sorts the ITQ, rebuilds every ready task's full estimate
// vector from scratch (the O(|ITQ|·p) loop of Algorithm 1), picks the
// highest PV (ties to the smaller task ID), and commits the minimum-EFT
// estimate (or the best lookahead score). It returns the Table-I trace
// with the schedule; the indexed core must reproduce both bit for bit.
// Problems must be untraced: the substrate's estimator would emit an
// estimate event per evaluation.
func referenceSchedule(h *HDLTS, pr *sched.Problem) (*sched.Schedule, []Step, error) {
	pr = pr.Normalize()
	g := pr.G
	s := sched.NewSchedule(pr)
	pol := h.policy()
	sigma := stats.SampleStdDev
	if h.opts.PopulationSigma {
		sigma = stats.PopStdDev
	}

	n := g.NumTasks()
	remaining := make([]int, n)
	var itq []dag.TaskID
	for t := 0; t < n; t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			itq = append(itq, dag.TaskID(t))
		}
	}

	var steps []Step
	for len(itq) > 0 {
		slices.Sort(itq)

		// Phase 1+2: EFT vectors and penalty values for every ready task.
		pvs := make([]float64, len(itq))
		ests := make([][]sched.Estimate, len(itq))
		bestIdx := 0
		for i, t := range itq {
			es, err := s.EstimateAll(t, pol, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("reference: estimating task %d: %w", t, err)
			}
			eft := make([]float64, len(es))
			for p := range es {
				eft[p] = es[p].EFT
			}
			ests[i], pvs[i] = es, sigma(eft)
			if pvs[i] > pvs[bestIdx] {
				bestIdx = i
			}
		}

		// Phase 3: commit to the minimum-EFT processor (or the best
		// one-level lookahead score).
		selected, es := itq[bestIdx], ests[bestIdx]
		best := es[0]
		if h.opts.Lookahead {
			bestScore := h.lookaheadScore(s, es[0])
			for _, e := range es[1:] {
				if sc := h.lookaheadScore(s, e); sc < bestScore {
					best, bestScore = e, sc
				}
			}
		} else {
			for _, e := range es[1:] {
				if e.EFT < best.EFT {
					best = e
				}
			}
		}
		st := Step{
			Ready:      slices.Clone(itq),
			PV:         pvs,
			Selected:   selected,
			EFT:        make([]float64, len(es)),
			Proc:       best.Proc,
			Duplicated: best.UseDuplicate,
		}
		for p := range es {
			st.EFT[p] = es[p].EFT
		}
		steps = append(steps, st)
		if err := s.Commit(best); err != nil {
			return nil, nil, fmt.Errorf("reference: committing task %d on P%d: %w", selected, best.Proc+1, err)
		}

		// Phase 4: update the ITQ.
		itq = slices.Delete(itq, bestIdx, bestIdx+1)
		for _, a := range g.Succs(selected) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				itq = append(itq, a.Task)
			}
		}
	}
	if !s.Complete() {
		return nil, nil, fmt.Errorf("reference: stalled with %d/%d tasks placed", s.NumPlaced(), n)
	}
	return s, steps, nil
}
