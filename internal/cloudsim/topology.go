package cloudsim

import (
	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// role classifies a VM.
type role uint8

const (
	// roleVictim is a long-lived monitored VM attackers target.
	roleVictim role = iota
	// roleBenign is a long-lived or churn VM that only contributes load
	// (and, under MonitorAll, a detector stream).
	roleBenign
	// roleAttacker runs a memory DoS attack against its target victim.
	roleAttacker
)

// vm is one virtual machine. Telemetry state is only populated for
// monitored VMs; attacker state only for roleAttacker.
type vm struct {
	id   int
	name string
	role role
	app  string
	prof workload.Profile
	host int // current host id, -1 while unplaced

	// Telemetry and detection (monitored VMs).
	monitored bool
	model     *workload.Model // FidelityExact
	bm        *blockModel     // FidelityWindow
	det       detect.Detector
	wobs      detect.WindowObserver
	// maA/maM assemble the moving averages from the block model's ΔW-sample
	// block means (FidelityWindow), one observation per block once a window
	// is full, preserving the exact pipeline's window overlap.
	maA, maM   *timeseries.MovingAverager
	alarmsSeen int

	// Attacker campaign state.
	kind      attack.Kind
	target    int // victim VM id
	targetIdx int // index into engine.victims
	sched     attack.Schedule
	attacking bool
	// nextStart carries the exact (unquantized) virtual time the pending
	// placement uses as schedule start, so attack ramps are not perturbed
	// by event-tick rounding.
	nextStart    float64
	episodeStart float64

	paused     bool // provider throttle or live-migration downtime
	migrating  bool // paused specifically for live-migration downtime
	mitPending bool // a mitigation is scheduled or in flight for this VM

	// Accounting.
	placedAt   float64
	elapsed    float64
	progress   float64
	exposure   float64 // ∫ attack intensity dt while placed (victims)
	migrations int
}

// slowdownRate returns the instantaneous fraction of useful work lost to
// the given attack intensities (the repository's analytic convention, see
// experiment/migration.go).
func (v *vm) slowdownRate(bus, cleanse float64) float64 {
	s := v.prof.BusLockDrop*bus + 0.5*cleanse
	if s > 1 {
		s = 1
	}
	return s
}

// host is one simulated socket: the set of co-resident VMs plus the virtual
// tick it has been lazily advanced to.
type host struct {
	id   int
	tick int64
	vms  []*vm
	// throttling marks an in-flight throttle-verification stage, so
	// concurrent alarms on co-resident victims cannot stack provider
	// actions on one host.
	throttling bool
}

// add places v on h at virtual time now.
func (h *host) add(v *vm, now float64) {
	h.vms = append(h.vms, v)
	v.host = h.id
	v.placedAt = now
}

// remove takes v off h, preserving the order of the remaining VMs (order is
// part of the deterministic iteration contract).
func (h *host) remove(v *vm) {
	for i, o := range h.vms {
		if o == v {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			v.host = -1
			return
		}
	}
}

// attackActive reports whether any attacker on h has an active schedule at
// time t. Throttled (paused) attackers count: they are present and hostile,
// which is what migration classification needs.
func (h *host) attackActive(t float64) bool {
	for _, v := range h.vms {
		if v.role == roleAttacker && v.sched.Active(t) {
			return true
		}
	}
	return false
}

// envAt returns the instantaneous attack intensities on h at time t,
// combining co-resident attackers by taking the maximum per kind (a second
// bus locker does not lock the bus harder). Paused attackers contribute
// nothing.
func (h *host) envAt(t float64) (bus, cleanse float64) {
	for _, v := range h.vms {
		if v.role != roleAttacker || v.paused {
			continue
		}
		i := v.sched.Intensity(t)
		switch {
		case v.sched.Kind == attack.BusLock && i > bus:
			bus = i
		case v.sched.Kind == attack.Cleanse && i > cleanse:
			cleanse = i
		}
	}
	return bus, cleanse
}

// envOver returns the block-mean attack intensities on h over [t0, t1],
// combined like envAt.
func (h *host) envOver(t0, t1 float64) (bus, cleanse float64) {
	for _, v := range h.vms {
		if v.role != roleAttacker || v.paused {
			continue
		}
		i := meanIntensity(&v.sched, t0, t1)
		switch {
		case v.sched.Kind == attack.BusLock && i > bus:
			bus = i
		case v.sched.Kind == attack.Cleanse && i > cleanse:
			cleanse = i
		}
	}
	return bus, cleanse
}

// pickHost selects the placement target for a churn arrival or a migrated
// victim, excluding the given host id (-1 excludes none). Deterministic for
// a fixed placement-RNG state.
func (e *engine) pickHost(exclude int) *host {
	switch e.sc.Placement {
	case PlaceRandom:
		n := len(e.hosts)
		if exclude >= 0 && n > 1 {
			n--
		}
		k := 0
		if n > 1 {
			k = e.placeRng.IntN(n)
		}
		for _, h := range e.hosts {
			if h.id == exclude && len(e.hosts) > 1 {
				continue
			}
			if k == 0 {
				return h
			}
			k--
		}
		return e.hosts[0]
	case PlaceFirstFit:
		for _, h := range e.hosts {
			if h.id == exclude && len(e.hosts) > 1 {
				continue
			}
			if len(h.vms) < e.sc.VMsPerHost {
				return h
			}
		}
		fallthrough
	default: // PlaceLeastLoaded
		var best *host
		for _, h := range e.hosts {
			if h.id == exclude && len(e.hosts) > 1 {
				continue
			}
			if best == nil || len(h.vms) < len(best.vms) {
				best = h
			}
		}
		return best
	}
}
