package core

import (
	"math"

	"repro/internal/edgesim"
)

// This file is the cross-slot temporal acceleration layer of the decomposed
// scheduler (Config.DisableSlotReuse turns it off). Consecutive slots solve
// near-identical per-edge MILPs — only arrivals and the bandit's slowly
// drifting TIR estimates move — so the scheduler carries two kinds of state
// across slots:
//
//  1. the previous slot's assignment, re-seeded (after a deterministic
//     clamp-and-drop repair) as the branch & bound incumbent;
//  2. a fingerprint-keyed memo of full per-edge assignments: when a problem
//     hashes identically to one already solved, its plan fragment is returned
//     without invoking the solver at all.
//
// Determinism: fingerprints hash only solve inputs (never worker counts), are
// computed serially, and all reuse-state updates happen in the edge-order
// gather after the parallel fan-out, so plans remain byte-identical across
// worker counts. Reuse changes which certified incumbent a solve starts from,
// so reuse-on vs reuse-off agree only within the solver's 0.5% gap tolerance
// — the same bound PR 2 established for warm-vs-cold engines.
//
// When do the memo counters actually fire? The fingerprint covers every solve
// input, so memo_hits and delta_skipped_edges stay at zero unless the whole
// input vector repeats bit-for-bit. Under the default configuration two
// inputs drift every slot by design, keeping the memo legitimately cold:
//
//   - The online tuner's LCB shading √(ε²·ln(t+1)/(n+1)) (paper Eq. 17)
//     folds the slot counter t advanced by Tick(), so every arm's shaded
//     parameters move each slot even with no new observations. Skipping the
//     solve anyway would serve a plan computed for different parameters.
//   - Cluster bandwidth is redrawn per (slot, edge) from [Lo, Hi] Mbps, so
//     the ship budget repeats only when Lo == Hi.
//
// With an OfflineProvider (fixed parameters) and fixed bandwidth, repeated
// arrivals hit both paths — TestMemoAndDeltaCountersFireOnRepeatedInputs
// pins that down. The memo pays off exactly in that regime: stationary
// pre-profiled deployments, not the exploring online scheduler.

// defaultSlotCacheSize bounds the per-edge memo LRU. Per-edge memory
// therefore stays O(1) and total memory O(K).
const defaultSlotCacheSize = 8

// edgeReuse is the per-edge cross-slot solver state.
type edgeReuse struct {
	// cur is the assignment the edge most recently received (fresh solve,
	// delta skip, or memo hit) and curFP the fingerprint of the problem that
	// produced it; hasCur gates both. cur seeds the next solve's incumbent.
	cur    *EdgeAssignment
	curFP  uint64
	hasCur bool
	// lru is the bounded fingerprint → assignment memo, most recent last.
	lru []memoEntry
}

type memoEntry struct {
	fp  uint64
	asg *EdgeAssignment
}

// reuseFor returns edge k's reuse state, or nil when the layer is disabled.
func reuseFor(reuse []*edgeReuse, k int) *edgeReuse {
	if reuse == nil {
		return nil
	}
	return reuse[k]
}

// clear drops all carried state (edge failure: the rejoining edge re-solves
// cold, and stale plans must never resurface from the memo).
func (r *edgeReuse) clear() {
	r.cur, r.curFP, r.hasCur = nil, 0, false
	r.lru = r.lru[:0]
}

// lookup returns the memoized assignment for fp and refreshes its recency.
// The recency slide is in place — the memo fires every slot in stationary
// regimes, so it must not churn the allocator.
func (r *edgeReuse) lookup(fp uint64) *EdgeAssignment {
	for i := len(r.lru) - 1; i >= 0; i-- {
		if r.lru[i].fp == fp {
			e := r.lru[i]
			copy(r.lru[i:], r.lru[i+1:])
			r.lru[len(r.lru)-1] = e
			return e.asg
		}
	}
	return nil
}

// store inserts (fp, asg) as most recent, evicting the least recent past
// defaultSlotCacheSize entries. In-place like lookup; the backing array is
// bounded by defaultSlotCacheSize+1 entries.
func (r *edgeReuse) store(fp uint64, asg *EdgeAssignment) {
	for i := len(r.lru) - 1; i >= 0; i-- {
		if r.lru[i].fp == fp {
			copy(r.lru[i:], r.lru[i+1:])
			r.lru = r.lru[:len(r.lru)-1]
			break
		}
	}
	r.lru = append(r.lru, memoEntry{fp, asg})
	if over := len(r.lru) - defaultSlotCacheSize; over > 0 {
		copy(r.lru, r.lru[over:])
		for i := len(r.lru) - over; i < len(r.lru); i++ {
			r.lru[i] = memoEntry{}
		}
		r.lru = r.lru[:len(r.lru)-over]
	}
}

// noteFresh records a fresh solve's outcome: it becomes the seed and the
// memo gains it.
func (r *edgeReuse) noteFresh(fp uint64, asg *EdgeAssignment) {
	r.cur, r.curFP, r.hasCur = asg, fp, true
	r.store(fp, asg)
}

// noteReused records that the edge adopted a cached assignment for fp.
func (r *edgeReuse) noteReused(fp uint64, asg *EdgeAssignment) {
	r.cur, r.curFP, r.hasCur = asg, fp, true
}

// cloneAssignment deep-copies the parts of a cached assignment a consumer
// could mutate (deployment batch slices, the drop vector, the utilization
// map); scalar diagnostics are copied by value. The cached original must stay
// pristine for future hits.
func cloneAssignment(a *EdgeAssignment) *EdgeAssignment {
	cp := *a
	cp.Deployments = edgesim.CloneDeployments(a.Deployments)
	cp.Dropped = append([]int(nil), a.Dropped...)
	if a.Utilizations != nil {
		cp.Utilizations = make(map[string]float64, len(a.Utilizations))
		// Map→map copy: the destination is itself unordered, so iteration
		// order cannot leak.
		//birplint:ordered
		for k, v := range a.Utilizations {
			cp.Utilizations[k] = v
		}
	}
	return &cp
}

// fingerprintEdge hashes every input SolveEdge reads for edge k into a
// 64-bit FNV-1a fingerprint: the workload column, the ship budget, the
// snapshotted TIR parameters and γ predictions (exactly the keys the solve
// reads: apps with positive workload), the resident-model set, and all
// problem-shaping configuration. Workers is deliberately excluded — plans are
// worker-count invariant, and a fingerprint that saw Workers would defeat
// cross-worker byte-identity of cached plans. All composite state is iterated
// in index order (never map order), so the hash is deterministic.
func (s *Scheduler) fingerprintEdge(k int, w []int, shipMB float64, snap *paramSnapshot) uint64 {
	// Hand-rolled FNV-1a over the little-endian bytes of each word —
	// bit-identical to hash/fnv over the same byte stream, without the
	// hash.Hash64 interface allocation per call.
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	u64 := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= uint64(byte(v >> (8 * b)))
			h *= fnvPrime64
		}
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	i64 := func(v int) { u64(uint64(int64(v))) }
	b1 := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}

	c := s.cfg.Cluster
	i64(len(w))
	for _, v := range w {
		i64(v)
	}
	f64(shipMB)
	f64(c.SlotMS())
	f64(c.Edges[k].MemoryMB)
	for i, app := range s.cfg.Apps {
		if w[i] <= 0 {
			continue
		}
		i64(i)
		i64(len(app.Models))
		for j := range app.Models {
			par := snap.par[i][j]
			f64(par.Eta)
			f64(par.Beta)
			f64(par.C)
			f64(snap.gamma[i][j])
		}
	}
	// Resident set, in (app, version) index order.
	for i, app := range s.cfg.Apps {
		for j := range app.Models {
			b1(s.prev[k][[2]int{i, j}])
		}
	}
	i64(int(s.cfg.Mode))
	i64(int(s.cfg.Mem))
	i64(s.cfg.FixedB0)
	i64(s.cfg.MaxBatch)
	i64(s.cfg.SolveNodes)
	b1(s.cfg.KneeCap)
	b1(s.cfg.SingleVersion)
	f64(s.cfg.DropPenalty)
	f64(s.cfg.OverflowPenaltyPerMS)
	return h
}
