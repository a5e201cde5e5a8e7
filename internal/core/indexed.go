package core

import (
	"fmt"
	"runtime"
	"sync"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
)

// timeSampleStride is the phase-timing sampling stride: one iteration in
// this many is clocked and the flushed totals scale by the same factor.
// Must be a power of two (the sample test is a mask).
const timeSampleStride = 8

// The indexed core is the HDLTS engine behind every solve: the paper's loop
// (transcribed literally in the reference_test.go oracle), restated over
// flat index-keyed state so that the steady state of a solve allocates
// nothing and each iteration costs O(|ITQ|) with O(1) work per queued task.
//
// Layout (struct-of-slice throughout; see docs/SOLVER.md for the rationale
// and the Algorithm 1 line mapping):
//
//   - remaining, the only task-indexed array (length n), counts unplaced
//     parents; everything else scales with the peak ITQ width.
//   - one recycled "row" per queued task holds its cached per-processor
//     parent arrivals (entryArr/otherArr, the FillArrivals split), its EFT
//     vector (eftM), and its PV. Rows return to a free list on commit, so
//     a 1M-task solve with a 10k-wide frontier keeps ~10k rows.
//   - there is no priority structure: on typical DAGs the committed
//     processor's availability moves almost every queued task's EFT every
//     iteration, which degenerates a heap to |ITQ| sift operations per
//     iteration. The update pass already touches every live row, so the
//     selection argmax rides along with it for free — per-chunk maxima
//     merged over the (PV descending, task ID ascending) total order,
//     which keeps extraction deterministic under any chunking.
//
// The arena is pooled (arenaPool) and every slice is truncated, never
// freed, between solves: after the first solve of a given shape the only
// allocations left in HDLTS.Schedule are the returned Schedule's own
// tables, and ScheduleInto removes those too.
type arena struct {
	// Bound per solve.
	s        *sched.Schedule
	pr       *sched.Problem
	pol      sched.Policy
	popSigma bool
	np       int

	// Parameters of the in-flight column update, read by worker
	// goroutines; set before dispatch, constant during a pass.
	col      platform.Proc
	availCol float64
	iterMark uint32

	wg sync.WaitGroup

	// Per-chunk argmax and re-estimate counts of the current update pass,
	// indexed by chunk. Fixed-size: the worker cap (8) bounds the fan-out.
	bestPV   [16]float64
	bestRow  [16]int32
	updCount [16]int64
	// Per-chunk scratch listing the rows whose EFT moved during the pass,
	// so their σ recomputations can run pairwise-interleaved afterwards
	// (see stats.SampleStdDev2). Chunk-local, like the argmax slots.
	dirty [16][]int32

	// remaining[t] counts unscheduled parents; tasks enter the queue at 0.
	remaining []int32

	// Row-indexed; rows recycle through freeRows, so these grow to the peak
	// ITQ width. The flat matrices hold np entries per row.
	taskOf     []int32
	liveIdx    []int32 // position in live
	filledIter []uint32
	entryTask  []int32 // duplication-candidate parent, -1 when none
	pv         []float64
	live       []int32 // active rows, enqueue order
	freeRows   []int32
	eftM       []float64
	entryArr   []float64
	otherArr   []float64
	wRow       []float64 // the row task's execution costs, copied at enqueue
}

// arenaPool recycles solver arenas across solves (and across HDLTS
// instances — the arena carries no per-instance state).
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// bind prepares a pooled arena for one solve: the parent counter sized to
// n, row storage truncated but kept.
func (a *arena) bind(s *sched.Schedule, pr *sched.Problem, pol sched.Policy, popSigma bool, n, np int) {
	a.s, a.pr, a.pol, a.popSigma, a.np = s, pr, pol, popSigma, np
	if cap(a.remaining) < n {
		a.remaining = make([]int32, n)
	}
	a.remaining = a.remaining[:n]
	a.live = a.live[:0]
	a.freeRows = a.freeRows[:0]
	a.taskOf = a.taskOf[:0]
	a.liveIdx = a.liveIdx[:0]
	a.filledIter = a.filledIter[:0]
	a.entryTask = a.entryTask[:0]
	a.pv = a.pv[:0]
	a.eftM = a.eftM[:0]
	a.entryArr = a.entryArr[:0]
	a.otherArr = a.otherArr[:0]
	a.wRow = a.wRow[:0]
}

// recycle drops the per-solve bindings (so pooled arenas do not pin
// problems or schedules) and returns the arena to the pool.
func (a *arena) recycle() {
	a.s, a.pr = nil, nil
	arenaPool.Put(a)
}

// sigmaOf computes the configured PV σ over one EFT row. A branch over two
// direct calls, not a func field: the indirect call would block inlining on
// ~|E| invocations per solve.
//
//hdlts:hotpath
func (a *arena) sigmaOf(xs []float64) float64 {
	if a.popSigma {
		return stats.PopStdDev(xs)
	}
	return stats.SampleStdDev(xs)
}

// allocRow hands out a recycled row or grows the row storage by one. This
// is the designated amortised-growth point of the arena: the appends here
// run only while the ITQ widens past every previous solve's peak.
func (a *arena) allocRow() int32 {
	if k := len(a.freeRows); k > 0 {
		r := a.freeRows[k-1]
		a.freeRows = a.freeRows[:k-1]
		return r
	}
	r := int32(len(a.taskOf))
	a.taskOf = append(a.taskOf, 0)
	a.liveIdx = append(a.liveIdx, 0)
	a.filledIter = append(a.filledIter, 0)
	a.entryTask = append(a.entryTask, 0)
	a.pv = append(a.pv, 0)
	for i := 0; i < a.np; i++ {
		a.eftM = append(a.eftM, 0)
		a.entryArr = append(a.entryArr, 0)
		a.otherArr = append(a.otherArr, 0)
		a.wRow = append(a.wRow, 0)
	}
	return r
}

// enqueue admits a newly independent task: fills its arrival caches and
// computes its full EFT vector and PV against the current schedule. iter
// stamps the row so the next iteration's update pass knows it is already
// current.
//
//hdlts:hotpath
func (a *arena) enqueue(t dag.TaskID, iter uint32) error {
	row := a.allocRow()
	np := a.np
	base := int(row) * np
	et, err := a.s.FillArrivals(t, a.pol, a.entryArr[base:base+np], a.otherArr[base:base+np])
	if err != nil {
		a.freeRows = append(a.freeRows, row)
		return err
	}
	a.taskOf[row] = int32(t)
	a.entryTask[row] = int32(et)
	a.filledIter[row] = iter
	// An explicit element loop, not copy(): at np elements the memmove call
	// overhead exceeds the move itself.
	wr := a.wRow[base : base+np]
	for q, w := range a.pr.W.RowView(int(t)) {
		wr[q] = w
	}
	if et == dag.None && !a.pol.Insertion {
		// Fast path mirroring updateRange: no duplication candidate and
		// avail-based placement reduce the EFT to max(ready, Avail) + w.
		for q := 0; q < np; q++ {
			est := a.otherArr[base+q]
			if av := a.s.Avail(platform.Proc(q)); av > est {
				est = av
			}
			a.eftM[base+q] = est + wr[q]
		}
	} else {
		for q := 0; q < np; q++ {
			e := a.s.EstimateArrived(t, platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
			a.eftM[base+q] = e.EFT
		}
	}
	a.pv[row] = a.sigmaOf(a.eftM[base : base+np])
	a.liveIdx[row] = int32(len(a.live))
	a.live = append(a.live, row)
	return nil
}

// freeRow retires the committed task's row: swap-remove from live, return
// the row to the free list.
func (a *arena) freeRow(row int32) {
	li := a.liveIdx[row]
	lastRow := a.live[len(a.live)-1]
	a.live[li] = lastRow
	a.liveIdx[lastRow] = li
	a.live = a.live[:len(a.live)-1]
	a.freeRows = append(a.freeRows, row)
}

// selectScan returns the live row with the maximal (PV, smaller task ID) —
// the standalone selection used on the first iteration, before any update
// pass runs to carry the argmax.
//
//hdlts:hotpath
func (a *arena) selectScan() int32 {
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range a.live {
		pv := a.pv[row]
		if pv > bPV || (pv == bPV && a.taskOf[row] < bTask) {
			bPV, bRow, bTask = pv, row, a.taskOf[row]
		}
	}
	return bRow
}

// parMinRows gates the parallel recompute: below this queue width the
// dispatch handshake costs more than the row updates it spreads. A var,
// not a const, so the race/equivalence tests can force the parallel path
// on small problems.
var parMinRows = 2048

// parJob is one chunk of a column-update pass.
type parJob struct {
	a      *arena
	lo, hi int
	chunk  int
}

var (
	workersOnce sync.Once
	workerJobs  chan parJob
	numWorkers  int
)

// startWorkers launches the process-persistent recompute pool. Spawning
// goroutines per solve would put per-solve allocations back on the hot
// path (and trip the allocs/op gate on multi-core runners), so the pool
// starts once, lazily, on the first solve that can use it, and its workers
// idle on a channel receive between passes.
func startWorkers() {
	numWorkers = runtime.GOMAXPROCS(0) - 1
	if numWorkers > 7 {
		numWorkers = 7
	}
	if numWorkers <= 0 {
		return
	}
	workerJobs = make(chan parJob, numWorkers)
	for i := 0; i < numWorkers; i++ {
		go func() {
			for j := range workerJobs {
				j.a.updateRange(j.lo, j.hi, j.chunk)
				j.a.wg.Done()
			}
		}()
	}
}

// updateColumn brings the committed processor's EFT column current for
// every stale queued row, fanning the row recompute across the worker pool
// when the queue is wide enough, and returns the next selection (the fused
// argmax) plus the number of rows re-estimated (the substrate counter
// batch). Chunking cannot affect the selection: the per-chunk maxima merge
// over the (PV, task ID) total order.
//
//hdlts:hotpath
func (a *arena) updateColumn(q platform.Proc, iter uint32, workers int) (int32, int64) {
	k := len(a.live)
	a.col = q
	a.availCol = a.s.Avail(q)
	a.iterMark = iter
	nchunks := 1
	if workers > 1 && k >= parMinRows && workerJobs != nil {
		chunk := (k + workers - 1) / workers
		nchunks = (k + chunk - 1) / chunk
		a.wg.Add(nchunks - 1)
		for c := 1; c < nchunks; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > k {
				hi = k
			}
			workerJobs <- parJob{a: a, lo: lo, hi: hi, chunk: c}
		}
		a.updateRange(0, chunk, 0)
		a.wg.Wait()
	} else {
		a.updateRange(0, k, 0)
	}
	bPV, bRow, updated := a.bestPV[0], a.bestRow[0], a.updCount[0]
	for c := 1; c < nchunks; c++ {
		if pv := a.bestPV[c]; pv > bPV || (pv == bPV && a.taskOf[a.bestRow[c]] < a.taskOf[bRow]) {
			bPV, bRow = pv, a.bestRow[c]
		}
		updated += a.updCount[c]
	}
	return bRow, updated
}

// updateRange recomputes the committed processor's EFT column for queued
// rows [lo, hi), refreshes their PVs, and records the chunk's argmax and
// re-estimate count. Writes are row-local or chunk-local, so disjoint
// ranges run safely from several workers.
//
//hdlts:hotpath
func (a *arena) updateRange(lo, hi, chunk int) {
	q := a.col
	qi := int(q)
	np := a.np
	skip := a.iterMark - 1
	avail := a.availCol
	insertion := a.pol.Insertion
	popSigma := a.popSigma
	// Locals pin the slice headers in registers: the a.pv store inside the
	// loop would otherwise force the backing arrays to reload every row.
	live := a.live[lo:hi]
	taskOf, filledIter, entryTask := a.taskOf, a.filledIter, a.entryTask
	otherArr, eftM, pvs, wRows := a.otherArr, a.eftM, a.pv, a.wRow
	// Rows whose EFT moves are only recorded here; their σ recomputations
	// run pairwise afterwards, interleaving two independent FP dependency
	// chains (the serial add chain inside one σ is the latency bound).
	// Sized to the chunk once, before the row loop, so the appends below
	// never grow it.
	dirty := a.dirty[chunk]
	if cap(dirty) < len(live) {
		dirty = make([]int32, 0, len(a.live))
	}
	dirty = dirty[:0]
	updated := int64(0)
	for _, row := range live {
		if filledIter[row] != skip { // enqueued earlier; column may be stale
			updated++
			base := int(row) * np
			et := entryTask[row]
			if et < 0 && !insertion {
				// Fast path: without a duplication candidate, avail-based
				// EstimateArrived collapses to max(ready, Avail(q)) + w(t, q),
				// and Avail(q) is the hoisted pass constant. When the ready
				// time dominates (est >= avail), the fill-time value
				// est + w is still exact — Avail only grows under commits,
				// so it was dominated then too — and the whole recompute
				// skips.
				if est := otherArr[base+qi]; est < avail {
					if eftNew := avail + wRows[base+qi]; eftNew != eftM[base+qi] {
						eftM[base+qi] = eftNew
						dirty = append(dirty, row)
					}
				}
			} else {
				e := a.s.EstimateArrived(dag.TaskID(taskOf[row]), q, a.pol, dag.TaskID(et), a.entryArr[base+qi], otherArr[base+qi])
				if eftNew := e.EFT; eftNew != eftM[base+qi] {
					eftM[base+qi] = eftNew
					dirty = append(dirty, row)
				}
			}
		}
	}
	a.dirty[chunk] = dirty
	i := 0
	for ; i+1 < len(dirty); i += 2 {
		r0, r1 := dirty[i], dirty[i+1]
		b0, b1 := int(r0)*np, int(r1)*np
		if popSigma {
			pvs[r0], pvs[r1] = stats.PopStdDev2(eftM[b0:b0+np], eftM[b1:b1+np])
		} else {
			pvs[r0], pvs[r1] = stats.SampleStdDev2(eftM[b0:b0+np], eftM[b1:b1+np])
		}
	}
	if i < len(dirty) {
		r := dirty[i]
		b := int(r) * np
		if popSigma {
			pvs[r] = stats.PopStdDev(eftM[b : b+np])
		} else {
			pvs[r] = stats.SampleStdDev(eftM[b : b+np])
		}
	}
	// Selection argmax over the chunk, now that every PV is current. The
	// task ID loads only on the rare tie/new-max, keeping the common step
	// to one float load and one compare.
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range live {
		if pv := pvs[row]; pv > bPV {
			bPV, bRow, bTask = pv, row, taskOf[row]
		} else if pv == bPV && taskOf[row] < bTask {
			bRow, bTask = row, taskOf[row]
		}
	}
	a.bestPV[chunk] = bPV
	a.bestRow[chunk] = bRow
	a.updCount[chunk] = updated
}

// refreshRows rebuilds every stale row from scratch after a duplication:
// the new entry copy is reachable from every processor, so both the cached
// arrival vectors and every EFT column may have moved. Carries the
// selection argmax like updateColumn does.
//
//hdlts:hotpath
func (a *arena) refreshRows(iter uint32) (int32, int64, error) {
	np := a.np
	skip := iter - 1
	refreshed := int64(0)
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range a.live {
		t := a.taskOf[row]
		if a.filledIter[row] != skip {
			base := int(row) * np
			et, err := a.s.FillArrivals(dag.TaskID(t), a.pol, a.entryArr[base:base+np], a.otherArr[base:base+np])
			if err != nil {
				return -1, refreshed, err
			}
			a.entryTask[row] = int32(et)
			for q := 0; q < np; q++ {
				e := a.s.EstimateArrived(dag.TaskID(t), platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
				a.eftM[base+q] = e.EFT
			}
			refreshed += int64(np)
			a.pv[row] = a.sigmaOf(a.eftM[base : base+np])
		}
		pv := a.pv[row]
		if pv > bPV || (pv == bPV && t < bTask) {
			bPV, bRow, bTask = pv, row, t
		}
	}
	return bRow, refreshed, nil
}

// bestEstimate recomputes the selected task's winning estimate from its
// cached arrivals: the minimum-EFT processor (ties to the lower index), or
// the lookahead score when that option is on. No commit has intervened
// since the row's vectors were brought current, so the recomputation is
// bit-identical to the cached values — including the duplication decision
// the EFT alone does not carry.
//
//hdlts:hotpath
func (h *HDLTS) bestEstimate(a *arena, t dag.TaskID, row int32) sched.Estimate {
	np := a.np
	base := int(row) * np
	et := dag.TaskID(a.entryTask[row])
	if h.opts.Lookahead {
		best := a.s.EstimateArrived(t, 0, a.pol, et, a.entryArr[base], a.otherArr[base])
		bestScore := h.lookaheadScore(a.s, best)
		for q := 1; q < np; q++ {
			e := a.s.EstimateArrived(t, platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
			if sc := h.lookaheadScore(a.s, e); sc < bestScore {
				best, bestScore = e, sc
			}
		}
		return best
	}
	bq := 0
	for q := 1; q < np; q++ {
		if a.eftM[base+q] < a.eftM[base+bq] {
			bq = q
		}
	}
	return a.s.EstimateArrived(t, platform.Proc(bq), a.pol, et, a.entryArr[base+bq], a.otherArr[base+bq])
}

// runIndexed is the allocation-free engine. It maintains exactly the state
// the paper's loop recomputes — per queued task, the EFT vector under the
// current partial schedule and its PV — but keyed by index, updated in
// O(1) per (row, committed column), with the selection fused into the
// update pass. capt, when non-nil, receives every decision (traced,
// explain and Table-I solves); untraced solves pass nil and pay one
// pointer test per iteration.
//
//hdlts:hotpath
func (h *HDLTS) runIndexed(pr *sched.Problem, prev *sched.Schedule, capt *capture) (*sched.Schedule, error) {
	prof := obs.SolverProfileFor(h.Name())
	defer prof.Start(obs.PhaseSchedule).Stop()
	g := pr.G
	s := prev
	if s != nil {
		s.Reset(pr)
	} else {
		s = sched.NewSchedule(pr)
	}
	pol := h.policy()
	n, np := pr.NumTasks(), pr.NumProcs()

	a := arenaPool.Get().(*arena)
	defer a.recycle()
	a.bind(s, pr, pol, h.opts.PopulationSigma, n, np)

	workers := h.opts.MaxWorkers
	if workers <= 0 {
		workers = 8
	}
	if gmp := runtime.GOMAXPROCS(0); workers > gmp {
		workers = gmp
	}
	if workers > 1 {
		workersOnce.Do(startWorkers)
		if workers > numWorkers+1 {
			workers = numWorkers + 1
		}
	}

	scanAcc := prof.Accum(obs.PhaseScan)
	eftAcc := prof.Accum(obs.PhaseEFT)
	insAcc := prof.Accum(obs.PhaseInsertion)
	defer scanAcc.FlushScaled(timeSampleStride)
	defer eftAcc.FlushScaled(timeSampleStride)
	defer insAcc.FlushScaled(timeSampleStride)
	// Phase attribution samples one iteration in timeSampleStride and the
	// flush scales the totals back up: iterations are statistically alike
	// enough that the per-phase split keeps its shape, and the skipped
	// iterations save their clock reads — unsampled, the clock alone was
	// ~10% of solve time at 10k tasks. Within a sampled iteration each
	// Lap both closes a phase and opens the next with one reading.
	timedAll := scanAcc.Enabled()

	// Estimates are batch-accounted: EstimateArrived does not bump the
	// substrate counter per call, so the engine counts its own
	// (task, processor) re-estimates and lands them with one Add.
	estimates := int64(0)
	for t := 0; t < n; t++ {
		a.remaining[t] = int32(g.InDegree(dag.TaskID(t)))
		if a.remaining[t] == 0 {
			if err := a.enqueue(dag.TaskID(t), 0); err != nil {
				return nil, fmt.Errorf("core: estimating task %d: %w", t, err)
			}
			estimates += int64(np)
		}
	}

	var lastProc platform.Proc = -1
	refreshAll := false
	iter := uint32(0)
	for len(a.live) > 0 {
		iter++
		iterationCount.Inc()
		timed := timedAll && (iter-1)&(timeSampleStride-1) == 0
		var tick obs.SampledTick
		if timed {
			tick = obs.StartSample()
		}

		// Phase 1+2: bring EFT vectors and PVs current and pick the winner.
		// After a plain commit only the committed processor's column can
		// have moved for already-queued tasks; after a duplication every
		// row rebuilds. Rows enqueued after the previous commit are stamped
		// current and skipped.
		var selRow int32
		if lastProc < 0 {
			selRow = a.selectScan()
		} else if refreshAll {
			row, refreshed, err := a.refreshRows(iter)
			estimates += refreshed
			if err != nil {
				sched.CountEstimates(estimates)
				return nil, fmt.Errorf("core: refreshing estimates: %w", err)
			}
			selRow = row
			refreshAll = false
		} else {
			row, updated := a.updateColumn(lastProc, iter, workers)
			selRow = row
			estimates += updated
		}
		if timed {
			tick.Lap(&scanAcc)
		}

		// Phase 3: highest PV (ties to the smaller task ID) goes to its
		// minimum-EFT processor (or best lookahead score).
		t := dag.TaskID(a.taskOf[selRow])
		best := h.bestEstimate(a, t, selRow)
		if capt != nil {
			capt.record(a, t, selRow, best, iter)
		}
		if timed {
			tick.Lap(&eftAcc)
		}
		err := s.Commit(best)
		if timed {
			tick.Lap(&insAcc)
		}
		if err != nil {
			sched.CountEstimates(estimates)
			return nil, fmt.Errorf("core: committing task %d on P%d: %w", t, best.Proc+1, err)
		}
		lastProc = best.Proc
		refreshAll = best.UseDuplicate
		a.freeRow(selRow)

		// Phase 4: admit newly independent tasks with post-commit estimate
		// vectors — the same vectors the paper's loop computes at the
		// top of its next iteration, since no commit intervenes.
		for _, arc := range g.Succs(t) {
			a.remaining[arc.Task]--
			if a.remaining[arc.Task] == 0 {
				if err := a.enqueue(arc.Task, iter); err != nil {
					sched.CountEstimates(estimates)
					return nil, fmt.Errorf("core: estimating task %d: %w", arc.Task, err)
				}
				estimates += int64(np)
			}
		}
		if timed {
			tick.Lap(&eftAcc)
		}
	}
	sched.CountEstimates(estimates)

	if !s.Complete() {
		return nil, fmt.Errorf("core: scheduler stalled with %d/%d tasks placed", s.NumPlaced(), n)
	}
	return s, nil
}
