package cloudsim

// The provider's closed mitigation loop: alarm → (throttle →) verify →
// migrate → post-migration watch. Every stage is an event; the detector
// itself arbitrates the throttle-stage verdict, which is what
// PolicyThrottleMigrate buys over PolicyMigrate — intrinsic anomalies
// (bursts) stay alarmed while co-residents are quiesced and are absolved
// instead of triggering a pointless migration.

// handleMitigate fires the scheduled reaction to an alarm.
func (e *engine) handleMitigate(v *vm, now float64) {
	if v.host < 0 {
		v.mitPending = false
		return
	}
	h := e.hosts[v.host]
	switch e.sc.Mitigation.Policy {
	case PolicyMigrate:
		e.migrate(v, now)
		e.push(event{tick: e.tickFor(now + e.sc.Mitigation.VerifySeconds), kind: evVerifyMigrate, host: -1, vm: int32(v.id)})
	case PolicyThrottleMigrate:
		if h.throttling {
			v.mitPending = false
			return
		}
		h.throttling = true
		for _, o := range h.vms {
			if o != v {
				o.paused = true
			}
		}
		e.push(event{tick: e.tickFor(now + e.sc.Mitigation.ThrottleSeconds), kind: evVerifyThrottle, host: -1, vm: int32(v.id)})
	default:
		v.mitPending = false
	}
}

// handleVerifyThrottle ends the throttle stage and reads the verdict off
// the victim's own detector: still alarmed under quiesced co-residents
// means the anomaly is intrinsic (absolve); recovered means the contention
// was external (migrate away from it).
func (e *engine) handleVerifyThrottle(v *vm, now float64) {
	if v.host < 0 {
		v.mitPending = false
		return
	}
	h := e.hosts[v.host]
	h.throttling = false
	for _, o := range h.vms {
		if o != v {
			o.paused = o.migrating
		}
	}
	if v.det.Alarmed() {
		e.res.Absolved++
		v.mitPending = false
		return
	}
	e.res.Confirmed++
	e.migrate(v, now)
	e.push(event{tick: e.tickFor(now + e.sc.Mitigation.VerifySeconds), kind: evVerifyMigrate, host: -1, vm: int32(v.id)})
}

// handleVerifyMigrate closes the post-migration watch: any alarm edge since
// the migration (the detector was rebuilt on arrival) counts the recovery
// as failed.
func (e *engine) handleVerifyMigrate(v *vm) {
	v.mitPending = false
	if v.host < 0 || v.det == nil {
		return
	}
	if v.det.AlarmCount() > 0 {
		e.res.ReAlarms++
	} else {
		e.res.Recoveries++
	}
}

// handleResume ends the victim's live-migration downtime and restarts
// monitoring with a fresh detector (Stage 1 anew on the new host, from the
// per-application profile cache).
func (e *engine) handleResume(v *vm) error {
	v.paused, v.migrating = false, false
	if !v.monitored {
		return nil
	}
	return e.attachDetector(v)
}

// migrate moves v off its current host: attack episodes targeting it end
// (quarantine scored), displaced attackers schedule their re-location, and
// v restarts — paused for the migration downtime — on the placement
// policy's choice of destination.
func (e *engine) migrate(v *vm, now float64) {
	h1 := e.hosts[v.host]
	e.res.Migrations++
	if !h1.attackActive(now) {
		e.res.FalseMigrations++
	}
	for _, a := range h1.vms {
		if a.role == roleAttacker && a.attacking && a.target == v.id {
			e.quarantines = append(e.quarantines, now-a.episodeStart)
			a.sched.Stop = now
			a.attacking = false
			e.scheduleRelocate(a, now)
		}
	}
	h1.remove(v)
	e.pickHost(h1.id).add(v, now)
	v.paused, v.migrating = true, true
	v.migrations++
	e.push(event{tick: e.tickFor(now + e.sc.Mitigation.MigrationPause), kind: evResume, host: -1, vm: int32(v.id)})
}
