package detect

import (
	"fmt"
	"sort"
	"sync"

	"github.com/memdos/sds/internal/pcm"
)

// fleetShardCount is the number of registry shards (power of two so the
// FNV hash maps with a mask). 64 shards keep the per-shard collision rate
// negligible at the 100k-stream scale the ingest plane targets while
// costing ~6 KiB of empty maps.
const fleetShardCount = 64

// Fleet manages the detectors of every PROTECTED VM on one server — the
// deployment unit of the paper (§4: "SDS … will be deployed in the
// hypervisor on each server by the provider"). One PCM pass per sampling
// interval feeds each VM's sample to its own detector; the fleet exposes
// the aggregate alarm state the provider's control plane consumes.
//
// A Fleet is safe for concurrent use and built for many thousands of
// concurrently-observing VMs: the registry is shard-striped (FNV-1a hash
// of the VM name picks one of fleetShardCount shards, each with its own
// RWMutex), so no global lock sits on the Observe path — two VMs contend
// only in the unlucky case they hash to the same shard, and even then only
// for the map lookup, not the detector call. Every detector call is
// serialized through a per-VM mutex. Samples for a single VM must still
// arrive in time order (one feeding goroutine per VM, the natural shape of
// a per-connection server).
type Fleet struct {
	shards [fleetShardCount]fleetShard
}

// fleetShard is one stripe of the registry.
type fleetShard struct {
	mu        sync.RWMutex
	detectors map[string]*fleetEntry
}

// fleetEntry serializes all access to one VM's detector. The entry lock is
// held across inner Detector calls; detectors themselves need no locking.
type fleetEntry struct {
	mu  sync.Mutex
	det Detector
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	f := &Fleet{}
	for i := range f.shards {
		f.shards[i].detectors = make(map[string]*fleetEntry)
	}
	return f
}

// shard returns the registry stripe the named VM maps to.
func (f *Fleet) shard(vm string) *fleetShard {
	return &f.shards[Stripe(vm)]
}

// Stripe maps a VM name to one of fleetShardCount stripes by FNV-1a,
// inlined so the hot path allocates nothing (hash/fnv would force the
// string through an io.Writer). Fleet stripes its registry by it, and the
// sdsd ingest plane routes a VM's streams to shard Stripe(vm) mod shards.
func Stripe(vm string) int {
	h := uint32(2166136261)
	for i := 0; i < len(vm); i++ {
		h ^= uint32(vm[i])
		h *= 16777619
	}
	return int(h & (fleetShardCount - 1))
}

// StripeCount returns the number of registry stripes (a power of two,
// fixed at construction).
func (f *Fleet) StripeCount() int { return fleetShardCount }

// Stripe returns the registry stripe index the named VM maps to.
func (f *Fleet) Stripe(vm string) int { return Stripe(vm) }

// Protect registers a detector for the named VM. Re-registering a name
// replaces its detector (e.g. after re-profiling).
func (f *Fleet) Protect(vm string, det Detector) error {
	if vm == "" {
		return fmt.Errorf("detect: fleet needs a VM name")
	}
	if det == nil {
		return fmt.Errorf("detect: fleet needs a detector for %q", vm)
	}
	sh := f.shard(vm)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.detectors[vm]; ok {
		// Swap under the entry lock so an in-flight Observe completes
		// against the old detector before the replacement is visible.
		e.mu.Lock()
		e.det = det
		e.mu.Unlock()
		return nil
	}
	sh.detectors[vm] = &fleetEntry{det: det}
	return nil
}

// Unprotect removes the named VM (idempotent) — e.g. after migration off
// this server.
func (f *Fleet) Unprotect(vm string) {
	sh := f.shard(vm)
	sh.mu.Lock()
	delete(sh.detectors, vm)
	sh.mu.Unlock()
}

// Size returns the number of protected VMs.
func (f *Fleet) Size() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		n += len(sh.detectors)
		sh.mu.RUnlock()
	}
	return n
}

// entry returns the named VM's entry, or nil.
func (f *Fleet) entry(vm string) *fleetEntry {
	sh := f.shard(vm)
	sh.mu.RLock()
	e := sh.detectors[vm]
	sh.mu.RUnlock()
	return e
}

// Observe feeds one VM's PCM sample to its detector. Unknown VMs are an
// error: the caller's wiring is broken, not the data.
func (f *Fleet) Observe(vm string, s pcm.Sample) error {
	e := f.entry(vm)
	if e == nil {
		return fmt.Errorf("detect: fleet does not protect %q", vm)
	}
	e.mu.Lock()
	e.det.Observe(s)
	e.mu.Unlock()
	return nil
}

// VMAlarmed reports the named VM's current alarm state.
func (f *Fleet) VMAlarmed(vm string) (bool, error) {
	e := f.entry(vm)
	if e == nil {
		return false, fmt.Errorf("detect: fleet does not protect %q", vm)
	}
	e.mu.Lock()
	alarmed := e.det.Alarmed()
	e.mu.Unlock()
	return alarmed, nil
}

// VMAlarms returns a copy of the named VM's alarms so far.
func (f *Fleet) VMAlarms(vm string) ([]Alarm, error) {
	e := f.entry(vm)
	if e == nil {
		return nil, fmt.Errorf("detect: fleet does not protect %q", vm)
	}
	e.mu.Lock()
	alarms := e.det.Alarms()
	e.mu.Unlock()
	return alarms, nil
}

// snapshot returns the current (vm, entry) pairs without holding any
// registry lock across detector calls. Shards are copied one at a time, so
// the snapshot is per-shard consistent (registrations racing the snapshot
// may or may not appear — same contract as the single-registry version).
func (f *Fleet) snapshot() map[string]*fleetEntry {
	out := make(map[string]*fleetEntry, 64)
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for vm, e := range sh.detectors {
			out[vm] = e
		}
		sh.mu.RUnlock()
	}
	return out
}

// Alarmed reports whether any protected VM is currently alarmed.
func (f *Fleet) Alarmed() bool {
	for _, e := range f.snapshot() {
		e.mu.Lock()
		alarmed := e.det.Alarmed()
		e.mu.Unlock()
		if alarmed {
			return true
		}
	}
	return false
}

// AlarmedVMs returns the names of currently-alarmed VMs, sorted.
func (f *Fleet) AlarmedVMs() []string {
	var out []string
	for vm, e := range f.snapshot() {
		e.mu.Lock()
		alarmed := e.det.Alarmed()
		e.mu.Unlock()
		if alarmed {
			out = append(out, vm)
		}
	}
	sort.Strings(out)
	return out
}

// VMAlarm pairs an alarm with the VM it concerns.
type VMAlarm struct {
	VM string
	Alarm
}

// Alarms returns every alarm raised across the fleet, ordered by time.
func (f *Fleet) Alarms() []VMAlarm {
	var out []VMAlarm
	for vm, e := range f.snapshot() {
		e.mu.Lock()
		alarms := e.det.Alarms()
		e.mu.Unlock()
		for _, a := range alarms {
			out = append(out, VMAlarm{VM: vm, Alarm: a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].VM < out[j].VM
	})
	return out
}
