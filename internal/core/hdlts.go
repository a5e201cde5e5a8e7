// Package core implements HDLTS — Heterogeneous Dynamic List Task
// Scheduling — the contribution of the reproduced paper (Section IV).
//
// HDLTS keeps a dynamic Independent Task Queue (ITQ) holding only the tasks
// whose parents have all finished. On every iteration it:
//
//  1. computes, for every task in the ITQ, the EFT vector across all
//     processors (Eq. 6–7), virtually considering effective entry-task
//     duplication (Algorithm 1);
//  2. assigns each task a Penalty Value PV = sample standard deviation of
//     its EFT vector (Eq. 8) — its execution-time heterogeneity;
//  3. removes the highest-PV task and commits it to the processor with the
//     minimum EFT, materialising an entry duplicate when that is what made
//     the minimum achievable;
//  4. inserts any newly independent tasks into the ITQ and repeats.
//
// The EFT semantics (virtual duplication during estimation, sample-σ PV,
// avail-based placement) were pinned down by hand-reproducing every row of
// the paper's Table I; see DESIGN.md §1.
//
// One engine implements the loop: the *indexed core* (indexed.go) keeps
// all per-iteration state in flat, pooled, index-keyed slices — a selection
// argmax fused into the per-iteration update pass instead of a sorted queue
// or heap, cached parent-arrival vectors instead of recomputed ready times —
// and serves every solve allocation-free in the steady state; docs/SOLVER.md
// maps Algorithm 1 onto it line by line. Traced, Table-I and explain solves
// run the same loop with a decision capture attached (explain.go): one
// Decision per iteration, from which the tracer's event stream, the Step
// trace and the explain report are all derived. The literal transcription
// of the paper's loop survives only as the differential-testing oracle in
// reference_test.go.
package core

import (
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// metricIterations is the ITQ iteration counter series.
const metricIterations = "hdlts_iterations_total"

// iterationCount totals ITQ iterations across all HDLTS runs in the
// process (each iteration is one PV-ranked selection).
var iterationCount = obs.Default().Counter(metricIterations)

// Options tune HDLTS variants. The zero value is NOT the paper's algorithm;
// use DefaultOptions (or New) for the published configuration. The
// non-default combinations exist for the ablation benches in DESIGN.md §4.
type Options struct {
	// DisableDuplication turns off effective entry-task duplication
	// (Algorithm 1), leaving pure dynamic PV-priority scheduling.
	DisableDuplication bool
	// Insertion switches CPU selection from the paper's avail-based
	// placement (Eq. 6) to HEFT-style insertion-based slot search.
	Insertion bool
	// PopulationSigma computes PV with the population standard deviation
	// (divide by n) instead of the sample form (divide by n−1) that
	// reproduces Table I.
	PopulationSigma bool
	// Lookahead extends CPU selection one level down the workflow: the
	// selected task goes to the processor minimising its own EFT *plus* the
	// estimated EFT of its critical child given that placement. This is an
	// extension targeting the weakness the paper itself diagnoses in its
	// Fig. 4 discussion — HDLTS "does not take a look at the overall
	// structure of the application and the impact of a CPU assignment for a
	// task to its child tasks".
	Lookahead bool
	// MaxWorkers caps the goroutines the indexed core may use to recompute
	// EFT/PV vectors across queued tasks. 0 means automatic:
	// min(GOMAXPROCS, 8). 1 forces the recompute serial. The parallel path
	// only engages on wide queues (see parMinRows) and never changes the
	// schedule — selection is a total order on (PV, task ID). The setting
	// does not alter Name(): it is an execution knob, not an ablation.
	MaxWorkers int
}

// DefaultOptions is the configuration published in the paper.
var DefaultOptions = Options{}

// HDLTS is the scheduler. It is stateless between Schedule calls and safe
// for concurrent use.
type HDLTS struct {
	opts Options
}

// New returns HDLTS exactly as published.
func New() *HDLTS { return &HDLTS{opts: DefaultOptions} }

// NewWithOptions returns an HDLTS variant for ablation studies.
func NewWithOptions(o Options) *HDLTS { return &HDLTS{opts: o} }

// Name identifies the algorithm (including any ablation markers) in
// experiment tables.
func (h *HDLTS) Name() string {
	n := "HDLTS"
	if h.opts.DisableDuplication {
		n += "-nodup"
	}
	if h.opts.Insertion {
		n += "-ins"
	}
	if h.opts.PopulationSigma {
		n += "-popσ"
	}
	if h.opts.Lookahead {
		n += "-la"
	}
	return n
}

func (h *HDLTS) policy() sched.Policy {
	return sched.Policy{Insertion: h.opts.Insertion, EntryDuplication: !h.opts.DisableDuplication}
}

// Step records one ITQ iteration for trace output (Table I reproduction).
// It is a view of the iteration's Decision with the ITQ snapshot uncapped.
type Step struct {
	// Ready lists the ITQ content at the start of the step, ascending by ID.
	Ready []dag.TaskID
	// PV holds the penalty value of each ready task, aligned with Ready.
	PV []float64
	// Selected is the task removed from the ITQ this step.
	Selected dag.TaskID
	// EFT is the selected task's earliest-finish-time vector by processor.
	EFT []float64
	// Proc is the processor the task was committed to.
	Proc platform.Proc
	// Duplicated reports whether an entry duplicate was materialised on
	// Proc as part of this commit.
	Duplicated bool
}

// Schedule maps the problem's workflow onto its platform and returns the
// complete schedule. Multi-entry/multi-exit workflows are normalised with
// zero-cost pseudo tasks first; the returned schedule references the
// normalised problem (its Makespan equals the original workflow's).
func (h *HDLTS) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	return h.run(pr, nil, nil)
}

// ScheduleInto is Schedule reusing the backing storage of a schedule
// returned by a previous call — timelines, placement tables, duplicate
// lists. Combined with the pooled solver arena this makes the steady state
// of a solve stream allocation-free (the solver/hdlts/v10k_steady bench
// pins it at zero allocs/op). prev must not be in use elsewhere; it is
// reset and rebound to pr's normalised form. Passing nil is equivalent to
// Schedule.
func (h *HDLTS) ScheduleInto(pr *sched.Problem, prev *sched.Schedule) (*sched.Schedule, error) {
	return h.run(pr, prev, nil)
}

// ScheduleTrace is Schedule plus the per-iteration trace of ready sets,
// penalty values, selections, and EFT vectors — the exact content of the
// paper's Table I.
func (h *HDLTS) ScheduleTrace(pr *sched.Problem) (*sched.Schedule, []Step, error) {
	capt := &capture{keep: true, fullITQ: true}
	s, err := h.run(pr, nil, capt)
	if err != nil {
		return nil, nil, err
	}
	steps := make([]Step, len(capt.decisions))
	for i := range capt.decisions {
		steps[i] = capt.decisions[i].step()
	}
	return s, steps, nil
}

// run normalises the problem and solves it with the indexed core. capt,
// when non-nil, records the decisions the caller asked for; a traced
// problem always gets a capture, which feeds the tracer its decision
// stream. The schedule is the same either way.
func (h *HDLTS) run(pr *sched.Problem, prev *sched.Schedule, capt *capture) (*sched.Schedule, error) {
	pr = pr.Normalize()
	if tr := pr.Tracer(); tr.Enabled() {
		if capt == nil {
			capt = &capture{}
		}
		capt.tr = tr
	}
	return h.runIndexed(pr, prev, capt)
}

// lookaheadScore estimates the downstream cost of committing estimate e:
// e's own EFT plus the best achievable EFT of e's *critical child* — the
// child with the largest such minimum — assuming the child's other already-
// scheduled parents stay put and processor availabilities only change on
// e.Proc. Unscheduled co-parents are ignored (their arrivals are unknown),
// making this an optimistic one-level probe in the spirit of
// lookahead-HEFT.
//
//hdlts:hotpath
func (h *HDLTS) lookaheadScore(s *sched.Schedule, e sched.Estimate) float64 {
	pr := s.Problem()
	g := pr.G
	succs := g.Succs(e.Task)
	if len(succs) == 0 {
		return e.EFT
	}
	worstChild := 0.0
	for _, a := range succs {
		child := a.Task
		bestEFT := math.Inf(1)
		for q := 0; q < pr.NumProcs(); q++ {
			proc := platform.Proc(q)
			// Arrival of e's output on q under the tentative placement.
			ready := e.EFT + pr.Comm(a.Data, e.Proc, proc)
			for _, b := range g.Preds(child) {
				if b.Task == e.Task || !s.Placed(b.Task) {
					continue
				}
				if arr := s.Arrival(b.Task, b.Data, proc); arr > ready {
					ready = arr
				}
			}
			avail := s.Avail(proc)
			if proc == e.Proc && e.EFT > avail {
				avail = e.EFT
			}
			if avail > ready {
				ready = avail
			}
			if eft := ready + pr.Exec(child, proc); eft < bestEFT {
				bestEFT = eft
			}
		}
		if bestEFT > worstChild {
			worstChild = bestEFT
		}
	}
	return e.EFT + worstChild
}
