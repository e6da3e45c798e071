// Package membus models the shared memory-bus resource of a processor
// socket. Modern processors temporarily lock all internal memory buses to
// guarantee atomicity of certain operations (paper §2.2); the atomic
// bus-locking attack issues such operations continuously, starving
// co-located VMs of bus bandwidth. The model is a per-tick slot allocator:
// lock windows consume an exclusive fraction of the tick, and the remaining
// slots are shared max-min fairly among the requestors.
package membus

import (
	"fmt"
	"math"
	"sort"
)

// Demand is one requestor's bus demand for a tick.
type Demand struct {
	// Owner identifies the requestor (VM index).
	Owner int
	// Accesses is the number of memory accesses the requestor wants to
	// issue this tick.
	Accesses int
	// LockFraction is the fraction of the tick the requestor spends
	// holding atomic bus locks (only the bus-lock attacker sets this).
	// During lock windows no other requestor's accesses proceed, but the
	// holder's own accesses do.
	LockFraction float64
}

// Grant is the allocator's answer to a Demand.
type Grant struct {
	Owner    int
	Accesses int // granted accesses, ≤ demand
	Stalled  int // demand − granted
}

// Stats accumulates allocator totals across ticks.
type Stats struct {
	Requested      uint64
	Granted        uint64
	Stalled        uint64
	LockedTickFrac float64 // sum over ticks of the locked fraction
	Ticks          uint64
}

// Bus is the allocator. The zero value is unusable; construct with New.
type Bus struct {
	perSecond float64
	maxLock   float64
	stats     Stats
}

// New returns a bus that can serve accessesPerSecond accesses when unlocked.
// maxLockFraction caps the tick fraction lock windows may consume (the
// hardware always lets some cycles through); values ≤ 0 default to 0.95.
func New(accessesPerSecond float64, maxLockFraction float64) (*Bus, error) {
	if accessesPerSecond <= 0 {
		return nil, fmt.Errorf("membus: accessesPerSecond must be positive, got %v", accessesPerSecond)
	}
	if maxLockFraction <= 0 || maxLockFraction > 1 {
		maxLockFraction = 0.95
	}
	return &Bus{perSecond: accessesPerSecond, maxLock: maxLockFraction}, nil
}

// Stats returns a copy of the cumulative allocator statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Allocate serves one tick of dt seconds. Lock windows from all demands are
// summed (capped at the configured maximum): the lock holders' own accesses
// are served from the full budget, everyone else shares the unlocked
// remainder max-min fairly. The returned grants are ordered like demands.
func (b *Bus) Allocate(dt float64, demands []Demand) ([]Grant, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("membus: tick duration must be positive, got %v", dt)
	}
	budget := int(b.perSecond * dt)
	lock := 0.0
	for _, d := range demands {
		if d.Accesses < 0 {
			return nil, fmt.Errorf("membus: negative demand %d from owner %d", d.Accesses, d.Owner)
		}
		if d.LockFraction < 0 || d.LockFraction > 1 {
			return nil, fmt.Errorf("membus: lock fraction %v from owner %d out of [0,1]", d.LockFraction, d.Owner)
		}
		lock += d.LockFraction
	}
	if lock > b.maxLock {
		lock = b.maxLock
	}

	grants := make([]Grant, len(demands))
	for i, d := range demands {
		grants[i] = Grant{Owner: d.Owner}
		b.stats.Requested += uint64(d.Accesses)
	}

	// Lock holders are served first from the whole budget (their atomic
	// operations proceed during their own lock windows).
	remaining := budget
	var shared []int // indexes of non-locking demands
	for i, d := range demands {
		if d.LockFraction > 0 {
			got := min(d.Accesses, remaining)
			grants[i].Accesses = got
			remaining -= got
			continue
		}
		shared = append(shared, i)
	}

	// Non-holders can only use the unlocked fraction of the tick.
	open := int(math.Round(float64(budget) * (1 - lock)))
	if open > remaining {
		open = remaining
	}
	allocateFair(demands, grants, shared, open)

	for i, d := range demands {
		grants[i].Stalled = d.Accesses - grants[i].Accesses
		b.stats.Granted += uint64(grants[i].Accesses)
		b.stats.Stalled += uint64(grants[i].Stalled)
	}
	b.stats.LockedTickFrac += lock
	b.stats.Ticks++
	return grants, nil
}

// allocateFair distributes slots among demands[idx] max-min fairly: sort by
// demand, give each the minimum of its demand and an equal share of what is
// left.
func allocateFair(demands []Demand, grants []Grant, idx []int, slots int) {
	if len(idx) == 0 || slots <= 0 {
		return
	}
	order := make([]int, len(idx))
	copy(order, idx)
	sort.Slice(order, func(a, b int) bool {
		return demands[order[a]].Accesses < demands[order[b]].Accesses
	})
	left := slots
	for pos, i := range order {
		share := left / (len(order) - pos)
		got := min(demands[i].Accesses, share)
		grants[i].Accesses = got
		left -= got
	}
	// A second pass hands out any remainder to still-unsatisfied demands.
	for _, i := range order {
		if left == 0 {
			break
		}
		extra := min(demands[i].Accesses-grants[i].Accesses, left)
		grants[i].Accesses += extra
		left -= extra
	}
}
