package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// canonicalBytes serialises a completed schedule through the deterministic
// JSON codec: placements sorted by (proc, start, task), makespan included.
// Two schedules are equivalent for the property tests below iff these bytes
// are identical — the strongest comparison the codec supports, covering
// every placement (duplicates included) and every float bit-for-bit via the
// shortest-round-trip encoding.
func canonicalBytes(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteScheduleJSON(&buf, "HDLTS"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexedMatchesReferenceBytes is the seed-vs-indexed equivalence
// property: across ≥200 random DAG/platform pairs and every option
// combination, the indexed core must produce a canonical schedule
// byte-identical to the full-recompute oracle (reference_test.go) — the
// literal Algorithm 1 loop. Byte identity means identical placements,
// identical duplicate decisions, and a bit-identical makespan; any
// floating-point reassociation in the indexed core's incremental EFT
// maintenance or batched σ would show up here. Explain and traced solves
// run the same core with a capture attached and must not move a byte.
func TestIndexedMatchesReferenceBytes(t *testing.T) {
	optionSets := []Options{
		{},
		{DisableDuplication: true},
		{Insertion: true},
		{PopulationSigma: true},
		{Lookahead: true},
	}
	const pairs = 200
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < pairs; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatalf("pair %d: generator: %v", i, err)
		}
		for _, o := range optionSets {
			indexed := NewWithOptions(o)
			si, err := indexed.Schedule(pr)
			if err != nil {
				t.Fatalf("pair %d opts %+v: indexed: %v", i, o, err)
			}
			sr, _, err := referenceSchedule(indexed, pr)
			if err != nil {
				t.Fatalf("pair %d opts %+v: reference: %v", i, o, err)
			}
			bi, br := canonicalBytes(t, si), canonicalBytes(t, sr)
			if !bytes.Equal(bi, br) {
				t.Fatalf("pair %d opts %+v: indexed and reference schedules differ\nindexed:\n%s\nreference:\n%s",
					i, o, bi, br)
			}
			// Rationale capture must be a pure observer: the explain solve's
			// schedule stays byte-identical to the uncaptured one.
			se, decs, err := indexed.ScheduleExplained(pr)
			if err != nil {
				t.Fatalf("pair %d opts %+v: explained: %v", i, o, err)
			}
			if be := canonicalBytes(t, se); !bytes.Equal(bi, be) {
				t.Fatalf("pair %d opts %+v: capture changed the schedule", i, o)
			}
			if len(decs) == 0 {
				t.Fatalf("pair %d opts %+v: no decisions captured", i, o)
			}
			// A traced solve is the same solve: same bytes, and its
			// iteration events replay the captured decisions.
			col := obs.NewCollector()
			st, err := indexed.Schedule(pr.WithTracer(col))
			if err != nil {
				t.Fatalf("pair %d opts %+v: traced: %v", i, o, err)
			}
			if bt := canonicalBytes(t, st); !bytes.Equal(bi, bt) {
				t.Fatalf("pair %d opts %+v: tracing changed the schedule", i, o)
			}
			k := 0
			for _, ev := range col.Events() {
				if ev.Type != obs.EvIteration {
					continue
				}
				if k >= len(decs) {
					t.Fatalf("pair %d opts %+v: more iteration events than decisions", i, o)
				}
				d := decs[k]
				if ev.Iter != d.Iter || ev.Task != int(d.Task) || ev.Proc != int(d.Proc) ||
					ev.Value != d.PV || ev.Dup != d.Duplicated {
					t.Fatalf("pair %d opts %+v: iteration event %+v disagrees with decision %+v", i, o, ev, d)
				}
				k++
			}
			if k != len(decs) {
				t.Fatalf("pair %d opts %+v: %d iteration events for %d decisions", i, o, k, len(decs))
			}
		}
	}
}

// TestIndexedParallelMatchesSerial: the parallel PV/EFT recompute must be
// bit-identical to the serial pass under any worker count — the per-chunk
// argmax merge preserves the (PV desc, taskID asc) total order regardless
// of chunking. parMinRows is lowered so the small test problems actually
// engage the workers; run under -race this also exercises the worker
// hand-off for data races (CI runs the test suite with -race).
func TestIndexedParallelMatchesSerial(t *testing.T) {
	oldMin := parMinRows
	parMinRows = 16
	defer func() { parMinRows = oldMin }()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		pr, err := gen.Random(gen.Params{
			V: 300 + rng.Intn(700), Alpha: 2.0, Density: 4, CCR: 2,
			Procs: 4 + 2*rng.Intn(3), WDAG: 80, Beta: 1.2,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		serial := NewWithOptions(Options{MaxWorkers: 1})
		parallel := NewWithOptions(Options{MaxWorkers: 4})
		ss, err := serial.Schedule(pr)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := parallel.Schedule(pr)
		if err != nil {
			t.Fatal(err)
		}
		bs, bp := canonicalBytes(t, ss), canonicalBytes(t, sp)
		if !bytes.Equal(bs, bp) {
			t.Fatalf("problem %d: parallel recompute diverged from serial", i)
		}
	}
}

// TestScheduleIntoZeroAllocs pins the steady-state allocation contract: a
// solve stream that reuses the previous schedule's storage via ScheduleInto
// must not allocate at all — the arena comes from the pool, the schedule is
// reset in place, and every hot-path structure is preallocated. This is the
// same invariant the solver/hdlts/v10k_steady bench reports as allocs/op=0
// and the hdltsvet hotpathalloc rule guards statically.
func TestScheduleIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is meaningless under -race")
	}
	pr, err := gen.Random(gen.Params{
		V: 2000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithOptions(Options{MaxWorkers: 1})
	s, err := h.Schedule(pr) // warm-up: binds the pool arena and the schedule
	if err != nil {
		t.Fatal(err)
	}
	want := s.Makespan()
	allocs := testing.AllocsPerRun(5, func() {
		s, err = h.ScheduleInto(pr, s)
		if err != nil {
			t.Fatal(err)
		}
	})
	if s.Makespan() != want {
		t.Fatalf("steady-state makespan drifted: %g != %g", s.Makespan(), want)
	}
	if allocs != 0 {
		t.Fatalf("ScheduleInto allocated %.1f times per solve, want 0", allocs)
	}
}
