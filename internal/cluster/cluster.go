// Package cluster describes the edge collaborative system topology: which
// accelerators participate, how much memory each edge grants to inference,
// and the per-slot wireless bandwidth budget N^t_k of paper Eq. 9.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/mat"
)

// Edge is one participant in the collaborative system.
type Edge struct {
	Name   string
	Device *accel.Device
	// MemoryMB is M_k of Eq. 6: memory available to inference, net of system
	// overhead (paper range [4500, 6500] MB).
	MemoryMB float64
	// BandwidthLoMbps/BandwidthHiMbps bound the per-slot wireless budget
	// (paper range [50, 100] Mbps); the realized value varies per slot.
	BandwidthLoMbps float64
	BandwidthHiMbps float64
}

// Cluster is the edge collaborative system.
type Cluster struct {
	Edges []*Edge
	// SlotSeconds is the scheduling slot duration τ. The paper uses
	// 15-minute slots with its production trace; the simulator default of
	// 10 s keeps the same *ratios* (batch time : slot, transfer : bandwidth
	// budget) at laptop scale — see EXPERIMENTS.md for the scaling argument.
	SlotSeconds float64
	seed        int64
	// bwIndex, when non-nil, maps local edge index → the index used for
	// bandwidth realization. Sub views set it so a domain's edges draw
	// exactly the per-slot budgets they would draw in the parent fleet;
	// nil means the identity mapping.
	bwIndex []int
	// bw caches realized BandwidthMBAt draws for the bwRingSlots most
	// recent slots: seeding a fresh math/rand source for every query is
	// ~100× the cost of the single uniform it produces, and the schedulers
	// re-query the same slot's budget many times (redistribution, per-edge
	// ship budgets, preloads, plan validation). Slot t lives in ring cell
	// t mod bwRingSlots until a slot mapping to the same cell replaces it,
	// so a long-running server holds a fixed number of slots however many
	// it has planned. Values are pure functions of (seed, t, k), so the
	// cache is transparent, and a lost race only repeats a draw.
	bw [bwRingSlots]atomic.Pointer[bwSlot]
}

// bwRingSlots is the number of slots the bandwidth-draw cache keeps. Every
// caller works on one slot at a time (a scheduler's Decide, the
// simulator's validation, a serve replan), so a handful would do; the
// margin keeps concurrent runs on slots less than bwRingSlots apart from
// evicting each other.
const bwRingSlots = 64

// bwSlot holds one slot's draws, one word per edge: the float64 bits of
// the budget in MB, or 0 while edge k has not been drawn. Words are read
// and written atomically, so concurrent readers never lock.
type bwSlot struct {
	t  int
	mb []atomic.Uint64
}

// Option mutates cluster construction.
type Option func(*Cluster)

// WithSlotSeconds overrides the slot duration.
func WithSlotSeconds(s float64) Option {
	return func(c *Cluster) { c.SlotSeconds = s }
}

// WithSeed sets the seed for per-slot bandwidth realization.
func WithSeed(seed int64) Option {
	return func(c *Cluster) { c.seed = seed }
}

// Default builds the paper's testbed: three heterogeneous edge types
// (Jetson NX, Jetson Nano, Atlas 200DK), two instances each.
func Default(opts ...Option) *Cluster {
	mems := []float64{6500, 6100, 4500, 4800, 5500, 5900}
	devs := []*accel.Device{
		&accel.JetsonNX, &accel.JetsonNX,
		&accel.JetsonNano, &accel.JetsonNano,
		&accel.Atlas200DK, &accel.Atlas200DK,
	}
	c := &Cluster{SlotSeconds: 10, seed: 1}
	for i, d := range devs {
		c.Edges = append(c.Edges, &Edge{
			Name:            fmt.Sprintf("edge-%d(%s)", i, d.Name),
			Device:          d,
			MemoryMB:        mems[i],
			BandwidthLoMbps: 50,
			BandwidthHiMbps: 100,
		})
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Small builds the paper's small-scale testbed: one edge per type.
func Small(opts ...Option) *Cluster {
	c := Default(opts...)
	c.Edges = []*Edge{c.Edges[0], c.Edges[2], c.Edges[4]}
	for i, e := range c.Edges {
		// Re-key names to the small cluster's own indices.
		renamed := *e
		renamed.Name = fmt.Sprintf("edge-%d(%s)", i, e.Device.Name)
		c.Edges[i] = &renamed
	}
	return c
}

// EdgeSpec describes one edge for Custom.
type EdgeSpec struct {
	Device *accel.Device
	// MemoryMB defaults to the device's MemoryMB when zero.
	MemoryMB float64
	// Bandwidth range in Mbps; defaults to the paper's [50, 100] when zero.
	BandwidthLoMbps, BandwidthHiMbps float64
}

// Custom builds an arbitrary topology from edge specs — downstream users'
// clusters rarely look like the paper's testbed. The result is validated.
func Custom(specs []EdgeSpec, opts ...Option) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: Custom needs at least one edge")
	}
	c := &Cluster{SlotSeconds: 10, seed: 1}
	for i, sp := range specs {
		if sp.Device == nil {
			return nil, fmt.Errorf("cluster: edge %d has no device", i)
		}
		e := &Edge{
			Name:            fmt.Sprintf("edge-%d(%s)", i, sp.Device.Name),
			Device:          sp.Device,
			MemoryMB:        sp.MemoryMB,
			BandwidthLoMbps: sp.BandwidthLoMbps,
			BandwidthHiMbps: sp.BandwidthHiMbps,
		}
		if mat.Zero(e.MemoryMB) {
			e.MemoryMB = sp.Device.MemoryMB
		}
		if mat.Zero(e.BandwidthLoMbps) && mat.Zero(e.BandwidthHiMbps) {
			e.BandwidthLoMbps, e.BandwidthHiMbps = 50, 100
		}
		c.Edges = append(c.Edges, e)
	}
	for _, o := range opts {
		o(c)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// N returns the number of edges.
func (c *Cluster) N() int { return len(c.Edges) }

// BandwidthMBAt returns the Eq. 9 network budget N^t_k for edge k in slot t,
// in megabytes per slot. It is deterministic in (seed, t, k).
func (c *Cluster) BandwidthMBAt(t, k int) float64 {
	cell := &c.bw[uint(t)%bwRingSlots]
	slot := cell.Load()
	if slot != nil && slot.t == t && k < len(slot.mb) {
		if bits := slot.mb[k].Load(); bits != 0 {
			return math.Float64frombits(bits)
		}
	}
	mb := c.drawBandwidthMB(t, k)
	if slot == nil || slot.t != t {
		// Install slot t (evicting the cell's older slot); when another
		// caller installed a slot first, fill in whichever one won.
		cell.CompareAndSwap(slot, &bwSlot{t: t, mb: make([]atomic.Uint64, len(c.Edges))})
		if slot = cell.Load(); slot.t != t {
			return mb
		}
	}
	if k < len(slot.mb) {
		slot.mb[k].Store(math.Float64bits(mb))
	}
	return mb
}

// drawBandwidthMB realizes N^t_k from a math/rand source seeded by
// (seed, t, parent edge index).
func (c *Cluster) drawBandwidthMB(t, k int) float64 {
	e := c.Edges[k]
	bk := k
	if c.bwIndex != nil {
		bk = c.bwIndex[k]
	}
	rng := rand.New(rand.NewSource(c.seed ^ int64(t)*1000003 ^ int64(bk)*10007))
	mbps := e.BandwidthLoMbps + rng.Float64()*(e.BandwidthHiMbps-e.BandwidthLoMbps)
	return mbps * c.SlotSeconds / 8
}

// Sub returns a restricted view of the cluster containing the given edges, in
// the given order. The view shares the parent's edge descriptors, slot
// duration, and seed, and — crucially — its bandwidth realizations: local edge
// j draws the per-slot budget of parent edge indices[j], so a domain solver
// plans against exactly the budgets the monolithic solver would see. The view
// keeps its own draw cache and is safe to use concurrently with the parent
// and with sibling views.
func (c *Cluster) Sub(indices []int) (*Cluster, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("cluster: Sub needs at least one edge")
	}
	sub := &Cluster{SlotSeconds: c.SlotSeconds, seed: c.seed}
	for _, k := range indices {
		if k < 0 || k >= len(c.Edges) {
			return nil, fmt.Errorf("cluster: Sub index %d out of range [0, %d)", k, len(c.Edges))
		}
		bk := k
		if c.bwIndex != nil {
			bk = c.bwIndex[k]
		}
		sub.Edges = append(sub.Edges, c.Edges[k])
		sub.bwIndex = append(sub.bwIndex, bk)
	}
	return sub, nil
}

// SlotMS returns the slot duration in milliseconds.
func (c *Cluster) SlotMS() float64 { return c.SlotSeconds * 1000 }

// Validate checks the topology for configuration mistakes.
func (c *Cluster) Validate() error {
	if len(c.Edges) == 0 {
		return fmt.Errorf("cluster: no edges")
	}
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("cluster: slot duration %v must be positive", c.SlotSeconds)
	}
	for i, e := range c.Edges {
		if e.Device == nil {
			return fmt.Errorf("cluster: edge %d has no device", i)
		}
		if e.MemoryMB <= 0 {
			return fmt.Errorf("cluster: edge %d has memory %v", i, e.MemoryMB)
		}
		if e.BandwidthLoMbps <= 0 || e.BandwidthHiMbps < e.BandwidthLoMbps {
			return fmt.Errorf("cluster: edge %d has bandwidth range [%v, %v]",
				i, e.BandwidthLoMbps, e.BandwidthHiMbps)
		}
	}
	return nil
}
