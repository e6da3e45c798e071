package cloudsim

import (
	"fmt"
	"math"
	"strconv"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// Run executes one datacenter scenario to completion and returns its
// deterministic result.
func Run(sc Scenario) (Result, error) {
	e, err := newEngine(sc)
	if err != nil {
		return Result{}, err
	}
	return e.run()
}

// engine is the single-threaded discrete-event simulator state.
type engine struct {
	sc         Scenario
	scheme     detect.Scheme // zero for Scheme "none"
	cfg        detect.Config
	tpcm       float64
	horizon    int64 // run length in ticks (T_PCM intervals)
	blockTicks int64 // ΔW at window fidelity, 1 at exact fidelity
	window     bool

	hosts   []*host
	vms     []*vm
	victims []int // victim VM ids, in id order

	heap eventHeap
	seq  uint64

	// Labelled substreams: placement decisions, churn arrivals/lifetimes,
	// and attacker campaigns each draw from their own stream so adding one
	// consumer never perturbs the others. Every VM model additionally owns
	// a stream derived from its name.
	placeRng, churnRng, campRng *randx.Rand

	profiles map[string]detect.Profile
	appProfs map[string]workload.Profile

	res         Result
	quarantines []float64
	churnSeq    int

	victimProg, victimElapsed float64
	benignProg, benignElapsed float64
	exposureSum               float64
}

// newEngine builds the initial cluster and seeds the event queue.
func newEngine(sc Scenario) (*engine, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	e := &engine{
		sc:         sc,
		cfg:        sc.Detect,
		tpcm:       sc.Detect.TPCM,
		horizon:    int64(pcm.SampleCount(sc.Seconds, sc.Detect.TPCM)),
		blockTicks: 1,
		window:     sc.Fidelity == FidelityWindow,
		placeRng:   randx.DeriveString(sc.Seed, "cloud/place"),
		churnRng:   randx.DeriveString(sc.Seed, "cloud/churn"),
		campRng:    randx.DeriveString(sc.Seed, "cloud/campaign"),
		profiles:   make(map[string]detect.Profile),
		appProfs:   make(map[string]workload.Profile),
	}
	if e.window {
		e.blockTicks = int64(e.cfg.DW)
	}
	for _, app := range sc.Apps {
		e.appProfs[app] = workload.MustAppProfile(app)
	}

	monitorScheme := sc.Scheme != "none"
	if monitorScheme {
		var err error
		if e.scheme, err = detect.LookupScheme(sc.Scheme); err != nil {
			return nil, err
		}
	}
	e.hosts = make([]*host, sc.Hosts)
	for i := range e.hosts {
		e.hosts[i] = &host{id: i}
	}
	for i := 0; i < sc.Hosts; i++ {
		for j := 0; j < sc.VMsPerHost; j++ {
			id := len(e.vms)
			r := roleBenign
			if j == 0 {
				r = roleVictim
				e.victims = append(e.victims, id)
			}
			monitored := monitorScheme && (j == 0 || sc.MonitorAll)
			v, err := e.newVM(id, r, sc.Apps[id%len(sc.Apps)], monitored)
			if err != nil {
				return nil, err
			}
			e.vms = append(e.vms, v)
			e.hosts[i].add(v, 0)
		}
	}
	for k := 0; k < sc.Attackers; k++ {
		id := len(e.vms)
		a := &vm{
			id:        id,
			name:      "atk" + strconv.Itoa(k),
			role:      roleAttacker,
			host:      -1,
			kind:      e.attackerKind(k),
			targetIdx: k * len(e.victims) / sc.Attackers,
		}
		a.target = e.victims[a.targetIdx]
		a.nextStart = sc.AttackStart
		e.vms = append(e.vms, a)
		e.push(event{tick: e.tickFor(sc.AttackStart), kind: evPlace, host: -1, vm: int32(id)})
	}
	if sc.ChurnArrivalsPerMin > 0 {
		e.push(event{tick: e.tickFor(e.churnRng.Exp(60 / sc.ChurnArrivalsPerMin)), kind: evArrive, host: -1, vm: -1})
	}

	e.res = Result{
		Scenario:  sc.Name,
		Policy:    sc.Mitigation.Policy,
		Fidelity:  sc.Fidelity,
		Scheme:    sc.Scheme,
		Hosts:     sc.Hosts,
		VMs:       sc.Hosts * sc.VMsPerHost,
		Attackers: sc.Attackers,
		Seconds:   sc.Seconds,
	}
	return e, nil
}

// attackerKind maps an attacker index to its attack kind.
func (e *engine) attackerKind(k int) attack.Kind {
	switch e.sc.AttackKind {
	case AttackBusLock:
		return attack.BusLock
	case AttackCleanse:
		return attack.Cleanse
	default: // AttackMixed
		if k%2 == 0 {
			return attack.BusLock
		}
		return attack.Cleanse
	}
}

// newVM constructs one benign or victim VM, with telemetry model and
// detector when monitored.
func (e *engine) newVM(id int, r role, app string, monitored bool) (*vm, error) {
	v := &vm{
		id:        id,
		name:      "vm" + strconv.Itoa(id),
		role:      r,
		app:       app,
		prof:      e.appProfs[app],
		host:      -1,
		monitored: monitored,
	}
	if !monitored {
		return v, nil
	}
	rng := randx.DeriveString(e.sc.Seed, v.name+"/model")
	if e.window {
		v.bm = newBlockModel(v.prof, rng, float64(e.cfg.DW)*e.tpcm, e.cfg.DW)
		var err error
		if v.maA, err = timeseries.NewMovingAverager(e.cfg.W, e.cfg.DW); err != nil {
			return nil, err
		}
		if v.maM, err = timeseries.NewMovingAverager(e.cfg.W, e.cfg.DW); err != nil {
			return nil, err
		}
	} else {
		model, err := workload.NewModel(v.prof, rng)
		if err != nil {
			return nil, err
		}
		v.model = model
	}
	if err := e.attachDetector(v); err != nil {
		return nil, err
	}
	return v, nil
}

// attachDetector (re-)builds v's detector from the cached Stage-1 profile —
// used at construction and after every migration (the paper reruns Stage 1
// on the destination host; the per-application profile is the same
// statistical object, so the engine reuses it).
func (e *engine) attachDetector(v *vm) error {
	v.det, v.wobs = nil, nil
	v.alarmsSeen = 0
	if e.window {
		v.maA.Reset()
		v.maM.Reset()
	}
	var prof detect.Profile
	if !e.scheme.Raw {
		var err error
		if prof, err = e.profileFor(v.app); err != nil {
			return err
		}
	}
	d, err := e.scheme.New(prof, e.cfg, e.sc.KSTest)
	if err != nil {
		return err
	}
	v.det = d
	v.wobs, _ = d.(detect.WindowObserver)
	return nil
}

// profileFor returns the app's Stage-1 detection profile, building it on
// first use. Profiling itself always runs at exact per-sample fidelity, so
// detector bounds are identical across fidelities.
func (e *engine) profileFor(app string) (detect.Profile, error) {
	if p, ok := e.profiles[app]; ok {
		return p, nil
	}
	p, err := Stage1Profile(app, e.sc.Seed, e.sc.ProfileSeconds, e.cfg)
	if err != nil {
		return detect.Profile{}, err
	}
	e.profiles[app] = p
	return p, nil
}

// Stage1Profile runs the attack-free Stage-1 profiling pass for one
// application: seconds of telemetry from its model on the app+"/profile"
// substream of seed, streamed into a detect.Profiler. The experiment
// harness profiles through it too, so both planes build bit-identical
// profiles from the same seed.
func Stage1Profile(app string, seed uint64, seconds float64, cfg detect.Config) (detect.Profile, error) {
	prof, err := workload.AppProfile(app)
	if err != nil {
		return detect.Profile{}, err
	}
	model, err := workload.NewModel(prof, randx.DeriveString(seed, app+"/profile"))
	if err != nil {
		return detect.Profile{}, err
	}
	p, err := detect.NewProfiler(app, cfg)
	if err != nil {
		return detect.Profile{}, err
	}
	n := pcm.SampleCount(seconds, cfg.TPCM)
	for i := 0; i < n; i++ {
		a, m := model.Sample(cfg.TPCM, workload.Env{})
		p.Observe(pcm.Sample{T: float64(i+1) * cfg.TPCM, Access: a, Miss: m})
	}
	return p.Profile()
}

// tickFor converts a virtual time to the event tick it lands on: rounded up
// to the next sample boundary, and at window fidelity up to the next block
// boundary, so events only ever apply between telemetry batches.
func (e *engine) tickFor(at float64) int64 {
	t := int64(math.Ceil(at/e.tpcm - 1e-9))
	if t < 0 {
		t = 0
	}
	if e.blockTicks > 1 {
		if r := t % e.blockTicks; r != 0 {
			t += e.blockTicks - r
		}
	}
	return t
}

// run drives the event loop to the horizon.
func (e *engine) run() (Result, error) {
	for {
		target := e.horizon
		if len(e.heap) > 0 && e.heap[0].tick < target {
			target = e.heap[0].tick
		}
		if !e.advanceAll(target) {
			// A host stopped early to let a freshly scheduled alarm
			// reaction keep its causal slot; re-evaluate the queue head.
			continue
		}
		if len(e.heap) == 0 {
			break // queue drained and every host at the horizon
		}
		ev := e.pop()
		if ev.tick > e.horizon {
			continue // scheduled past the end of the run
		}
		e.res.Events++
		if err := e.apply(ev); err != nil {
			return Result{}, err
		}
	}
	e.finalize()
	return e.res, nil
}

// advanceAll lazily brings every host forward to the target tick. It
// returns false as soon as one host stops early (a new alarm scheduled
// events that may precede the current target).
func (e *engine) advanceAll(to int64) bool {
	for _, h := range e.hosts {
		if !e.advanceHost(h, to) {
			return false
		}
	}
	return true
}

// advanceHost generates telemetry and progress on h up to the target tick,
// block by block (sample by sample at exact fidelity). When a monitored VM
// raises a new alarm the host finishes the current block for all its VMs,
// handles the alarm, and stops so scheduled reactions stay causally ordered.
func (e *engine) advanceHost(h *host, to int64) bool {
	for h.tick < to {
		end := h.tick + e.blockTicks
		if end > to {
			end = to
		}
		t0 := float64(h.tick) * e.tpcm
		t1 := float64(end) * e.tpcm
		dt := t1 - t0
		stopped := false
		if e.window {
			bus, cl := h.envOver(t0, t1)
			for _, v := range h.vms {
				if v.role == roleAttacker {
					continue
				}
				if v.paused {
					v.elapsed += dt
					continue
				}
				e.account(v, bus, cl, dt)
				if !v.monitored {
					continue
				}
				a, m := v.bm.step(bus, cl)
				e.res.Blocks++
				maA, ok := v.maA.PushBlock(a)
				maM, _ := v.maM.PushBlock(m)
				if ok {
					v.wobs.ObserveMA(t1, maA, maM)
					if n := v.det.AlarmCount(); n > v.alarmsSeen {
						v.alarmsSeen = n
						e.onAlarm(h, v, t1, end)
						stopped = true
					}
				}
			}
		} else {
			bus, cl := h.envAt(t1)
			for _, v := range h.vms {
				if v.role == roleAttacker {
					continue
				}
				if v.paused {
					v.elapsed += dt
					continue
				}
				e.account(v, bus, cl, dt)
				if !v.monitored {
					continue
				}
				var env workload.Env
				if detect.Collecting(v.det) {
					env = workload.Env{Quiesced: true}
				} else {
					env = workload.Env{BusLock: bus, Cleanse: cl}
				}
				a, m := v.model.Sample(e.tpcm, env)
				v.det.Observe(pcm.Sample{T: t1, Access: a, Miss: m})
				e.res.SamplesRepresented++
				if n := v.det.AlarmCount(); n > v.alarmsSeen {
					v.alarmsSeen = n
					e.onAlarm(h, v, t1, end)
					stopped = true
				}
			}
		}
		h.tick = end
		if stopped && h.tick < to {
			return false
		}
	}
	return true
}

// account accrues elapsed time, analytic progress and attack exposure for
// one VM over one interval.
func (e *engine) account(v *vm, bus, cl, dt float64) {
	v.elapsed += dt
	v.progress += dt * (1 - v.slowdownRate(bus, cl))
	if v.role == roleVictim {
		i := bus
		if cl > i {
			i = cl
		}
		if i > 0 {
			v.exposure += i * dt
		}
	}
}

// onAlarm scores a fresh alarm edge and, under an active mitigation policy,
// schedules the provider's reaction.
func (e *engine) onAlarm(h *host, v *vm, t float64, tick int64) {
	e.res.Alarms++
	e.res.noteAlarm(v.id, tick)
	if h.attackActive(t) {
		e.res.TrueAlarms++
	} else {
		e.res.FalseAlarms++
	}
	pol := e.sc.Mitigation.Policy
	if pol == PolicyNone || v.mitPending {
		return
	}
	if pol == PolicyThrottleMigrate && h.throttling {
		return
	}
	v.mitPending = true
	e.res.Mitigations++
	e.push(event{tick: e.tickFor(t + e.sc.Mitigation.ReactionDelay), kind: evMitigate, host: -1, vm: int32(v.id)})
}

// apply dispatches one event. Hosts are already advanced to the event tick.
func (e *engine) apply(ev event) error {
	now := float64(ev.tick) * e.tpcm
	switch ev.kind {
	case evArrive:
		e.handleArrive(now)
	case evDepart:
		e.handleDepart(e.vms[ev.vm])
	case evPlace:
		e.handlePlace(e.vms[ev.vm], now)
	case evHop:
		e.handleHop(e.vms[ev.vm], now)
	case evMitigate:
		e.handleMitigate(e.vms[ev.vm], now)
	case evVerifyThrottle:
		e.handleVerifyThrottle(e.vms[ev.vm], now)
	case evVerifyMigrate:
		e.handleVerifyMigrate(e.vms[ev.vm])
	case evResume:
		return e.handleResume(e.vms[ev.vm])
	default:
		return fmt.Errorf("cloudsim: unknown event kind %d", ev.kind)
	}
	return nil
}

// fold moves a VM's accounting into the run totals (at departure or at the
// end of the run).
func (e *engine) fold(v *vm) {
	switch v.role {
	case roleVictim:
		e.victimProg += v.progress
		e.victimElapsed += v.elapsed
		e.exposureSum += v.exposure
	case roleBenign:
		e.benignProg += v.progress
		e.benignElapsed += v.elapsed
	}
}

// finalize folds the still-placed VMs and fills the summary statistics.
func (e *engine) finalize() {
	for _, h := range e.hosts {
		for _, v := range h.vms {
			e.fold(v)
		}
	}
	if e.window {
		e.res.SamplesRepresented = e.res.Blocks * int64(e.cfg.DW)
	}
	e.res.TimeToQuarantine = metrics.Summarize(e.quarantines)
	e.res.QuarantineCount = len(e.quarantines)
	if e.victimElapsed > 0 {
		e.res.VictimSlowdown = 1 - e.victimProg/e.victimElapsed
	}
	if e.benignElapsed > 0 {
		e.res.BenignSlowdown = 1 - e.benignProg/e.benignElapsed
	}
	if n := len(e.victims); n > 0 {
		e.res.VictimExposureSec = e.exposureSum / float64(n)
	}
}
