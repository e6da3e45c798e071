package cloudsim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/workload"
)

// Telemetry fidelities.
const (
	// FidelityWindow generates telemetry in closed-form ΔW-sample blocks —
	// the fast path for cluster-scale runs.
	FidelityWindow = "window"
	// FidelityExact advances monitored VMs sample by sample, bit-identical
	// to the lockstep Simulate loop.
	FidelityExact = "exact"
)

// Placement policies for churn arrivals and migration targets.
const (
	PlaceLeastLoaded = "least-loaded"
	PlaceRandom      = "random"
	PlaceFirstFit    = "first-fit"
)

// Mitigation policies.
const (
	// PolicyNone never reacts to alarms (detection-only baseline).
	PolicyNone = "none"
	// PolicyMigrate migrates the alarmed victim immediately after the
	// reaction delay.
	PolicyMigrate = "migrate"
	// PolicyThrottleMigrate first throttles the victim's co-residents; if
	// the detector recovers, the contention was external and the victim is
	// migrated; if it stays alarmed, the anomaly is intrinsic and the alarm
	// is absolved without a migration.
	PolicyThrottleMigrate = "throttle-migrate"
)

// Attack kind selectors (AttackKindMixed alternates per attacker index).
const (
	AttackBusLock = "bus-locking"
	AttackCleanse = "llc-cleansing"
	AttackMixed   = "mixed"
)

// Mitigation configures the provider's closed response loop.
type Mitigation struct {
	// Policy selects the response strategy (PolicyNone default).
	Policy string `json:"policy,omitempty"`
	// ReactionDelay is the seconds between an alarm and the provider's
	// first action (default 1).
	ReactionDelay float64 `json:"reaction_delay,omitempty"`
	// ThrottleSeconds is the length of the throttle verification stage
	// under PolicyThrottleMigrate (default 10).
	ThrottleSeconds float64 `json:"throttle_seconds,omitempty"`
	// VerifySeconds is the post-migration watch: a fresh alarm within it
	// counts the migration as a failed recovery (default 30).
	VerifySeconds float64 `json:"verify_seconds,omitempty"`
	// MigrationPause is the victim's downtime during a live migration
	// (default 2).
	MigrationPause float64 `json:"migration_pause,omitempty"`
}

// Scenario describes one datacenter run. The zero value of most fields
// selects a sensible default (see withDefaults); Hosts is mandatory.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed uint64 `json:"seed"`
	// Hosts is the number of simulated hosts (sockets).
	Hosts int `json:"hosts"`
	// VMsPerHost is the number of long-lived benign VMs started on each
	// host (default 8). The first VM of every host is its designated
	// victim: always monitored, and the unit attackers target.
	VMsPerHost int `json:"vms_per_host"`
	// Seconds is the virtual run duration (default 900).
	Seconds float64 `json:"seconds"`
	// Fidelity selects the telemetry substrate (default FidelityWindow).
	Fidelity string `json:"fidelity,omitempty"`
	// Apps cycles over the initial VMs (default: all ten paper apps).
	Apps []string `json:"apps,omitempty"`
	// Scheme is the detection scheme of monitored VMs: any report name or
	// alias detect.LookupScheme resolves ("SDS", "SDS/B", "SDS/P",
	// "CUSUM", "TimeFrag", "EWMAVar", or "KStest" at exact fidelity only),
	// or "none" (default "SDS").
	Scheme string `json:"scheme,omitempty"`
	// MonitorAll monitors every benign VM, not just each host's victim.
	MonitorAll bool `json:"monitor_all,omitempty"`
	// ProfileSeconds is the Stage-1 attack-free profiling duration per
	// application (default 2000, shared across VMs running the same app).
	ProfileSeconds float64 `json:"profile_seconds,omitempty"`

	// Attackers is the number of attacker VMs in the cluster.
	Attackers int `json:"attackers,omitempty"`
	// AttackKind selects their attack (default AttackMixed).
	AttackKind string `json:"attack_kind,omitempty"`
	// AttackStrategy selects the attackers' evasive strategy by name
	// (attack.StrategyNames; default "steady"). Strategies are tuned per
	// placement against the configured detector geometry and the target
	// victim's profiled period.
	AttackStrategy string `json:"attack_strategy,omitempty"`
	// AttackStart is the virtual time of the first co-location (default 60).
	AttackStart float64 `json:"attack_start,omitempty"`
	// AttackRamp fixes the attacker ramp-up; 0 draws it per placement from
	// [RampMin, RampMax].
	AttackRamp float64 `json:"attack_ramp,omitempty"`
	// RampMin and RampMax bound the randomized ramp draw (default 8, 18).
	RampMin float64 `json:"ramp_min,omitempty"`
	RampMax float64 `json:"ramp_max,omitempty"`
	// RelocateMean is the mean delay before a displaced attacker re-locates
	// its target and achieves co-location again (default 120).
	RelocateMean float64 `json:"relocate_mean,omitempty"`
	// DwellMean, when positive, makes attackers run campaigns: after an
	// exponential dwell they abandon the host and move on to another victim.
	DwellMean float64 `json:"dwell_mean,omitempty"`

	// Placement selects where churn arrivals and migrated victims land
	// (default PlaceLeastLoaded).
	Placement string `json:"placement,omitempty"`

	// ChurnArrivalsPerMin is the benign VM arrival rate (0 disables churn).
	ChurnArrivalsPerMin float64 `json:"churn_arrivals_per_min,omitempty"`
	// ChurnLifetimeMean is the mean lifetime of a churn VM (default 300).
	ChurnLifetimeMean float64 `json:"churn_lifetime_mean,omitempty"`

	// Mitigation configures the provider's response loop.
	Mitigation Mitigation `json:"mitigation"`

	// Detect carries the SDS parameters; the zero value means the paper's
	// Table 1 defaults. Not part of scenario files.
	Detect detect.Config `json:"-"`
	// KSTest carries the baseline parameters for Scheme "KStest"; the zero
	// value means defaults. Not part of scenario files.
	KSTest detect.KSTestConfig `json:"-"`
}

// withDefaults fills unset fields with their documented defaults.
func (s Scenario) withDefaults() Scenario {
	if s.VMsPerHost == 0 {
		s.VMsPerHost = 8
	}
	if s.Seconds == 0 {
		s.Seconds = 900
	}
	if s.Fidelity == "" {
		s.Fidelity = FidelityWindow
	}
	if len(s.Apps) == 0 {
		s.Apps = workload.AppNames()
	}
	if s.Scheme == "" {
		s.Scheme = "SDS"
	}
	if s.ProfileSeconds == 0 {
		s.ProfileSeconds = 2000
	}
	if s.AttackKind == "" {
		s.AttackKind = AttackMixed
	}
	if s.AttackStart == 0 {
		s.AttackStart = 60
	}
	if s.RampMin == 0 && s.RampMax == 0 {
		s.RampMin, s.RampMax = 8, 18
	}
	if s.RelocateMean == 0 {
		s.RelocateMean = 120
	}
	if s.Placement == "" {
		s.Placement = PlaceLeastLoaded
	}
	if s.ChurnLifetimeMean == 0 {
		s.ChurnLifetimeMean = 300
	}
	if s.Mitigation.Policy == "" {
		s.Mitigation.Policy = PolicyNone
	}
	if s.Mitigation.ReactionDelay == 0 {
		s.Mitigation.ReactionDelay = 1
	}
	if s.Mitigation.ThrottleSeconds == 0 {
		s.Mitigation.ThrottleSeconds = 10
	}
	if s.Mitigation.VerifySeconds == 0 {
		s.Mitigation.VerifySeconds = 30
	}
	if s.Mitigation.MigrationPause == 0 {
		s.Mitigation.MigrationPause = 2
	}
	if s.Detect.TPCM == 0 {
		s.Detect = detect.DefaultConfig()
	}
	if s.KSTest.TPCM == 0 {
		s.KSTest = detect.DefaultKSTestConfig()
	}
	return s
}

// validate reports scenario errors. It expects defaults to be filled.
func (s Scenario) validate() error {
	switch {
	case s.Hosts <= 0:
		return fmt.Errorf("cloudsim: Hosts must be positive, got %d", s.Hosts)
	case s.VMsPerHost <= 0:
		return fmt.Errorf("cloudsim: VMsPerHost must be positive, got %d", s.VMsPerHost)
	case s.Seconds <= 0:
		return fmt.Errorf("cloudsim: Seconds must be positive, got %v", s.Seconds)
	case s.Attackers < 0:
		return fmt.Errorf("cloudsim: Attackers must be ≥ 0, got %d", s.Attackers)
	case s.ProfileSeconds <= 0:
		return fmt.Errorf("cloudsim: ProfileSeconds must be positive, got %v", s.ProfileSeconds)
	case s.RampMax < s.RampMin || s.RampMin < 0:
		return fmt.Errorf("cloudsim: bad ramp range [%v, %v]", s.RampMin, s.RampMax)
	case s.RelocateMean <= 0:
		return fmt.Errorf("cloudsim: RelocateMean must be positive, got %v", s.RelocateMean)
	case s.DwellMean < 0:
		return fmt.Errorf("cloudsim: DwellMean must be ≥ 0, got %v", s.DwellMean)
	case s.ChurnArrivalsPerMin < 0 || s.ChurnLifetimeMean <= 0:
		return fmt.Errorf("cloudsim: bad churn parameters (%v/min, %vs lifetime)",
			s.ChurnArrivalsPerMin, s.ChurnLifetimeMean)
	case s.Mitigation.ReactionDelay < 0 || s.Mitigation.ThrottleSeconds <= 0 ||
		s.Mitigation.VerifySeconds <= 0 || s.Mitigation.MigrationPause < 0:
		return fmt.Errorf("cloudsim: bad mitigation timings %+v", s.Mitigation)
	}
	switch s.Fidelity {
	case FidelityWindow, FidelityExact:
	default:
		return fmt.Errorf("cloudsim: unknown fidelity %q", s.Fidelity)
	}
	switch s.Placement {
	case PlaceLeastLoaded, PlaceRandom, PlaceFirstFit:
	default:
		return fmt.Errorf("cloudsim: unknown placement policy %q", s.Placement)
	}
	switch s.Mitigation.Policy {
	case PolicyNone, PolicyMigrate, PolicyThrottleMigrate:
	default:
		return fmt.Errorf("cloudsim: unknown mitigation policy %q", s.Mitigation.Policy)
	}
	switch s.AttackKind {
	case AttackBusLock, AttackCleanse, AttackMixed:
	default:
		return fmt.Errorf("cloudsim: unknown attack kind %q", s.AttackKind)
	}
	if _, err := attack.NamedStrategy(s.AttackStrategy, attack.StrategyParams{}); err != nil {
		return err
	}
	if err := s.Detect.Validate(); err != nil {
		return err
	}
	if s.Scheme == "none" {
		if s.Mitigation.Policy != PolicyNone {
			return fmt.Errorf("cloudsim: mitigation policy %q needs a detection scheme", s.Mitigation.Policy)
		}
	} else {
		scheme, err := detect.LookupScheme(s.Scheme)
		if err != nil {
			return fmt.Errorf("cloudsim: %w", err)
		}
		if scheme.Raw {
			if s.Fidelity != FidelityExact {
				return fmt.Errorf("cloudsim: the %s baseline consumes raw samples and needs %q fidelity", scheme.Name, FidelityExact)
			}
			if err := s.KSTest.Validate(); err != nil {
				return err
			}
		}
	}
	for _, app := range s.Apps {
		if _, err := workload.AppProfile(app); err != nil {
			return err
		}
	}
	if s.Fidelity == FidelityWindow {
		if s.Detect.W%s.Detect.DW != 0 {
			return fmt.Errorf("cloudsim: %s fidelity needs W (%d) divisible by ΔW (%d)",
				FidelityWindow, s.Detect.W, s.Detect.DW)
		}
		n := pcm.SampleCount(s.Seconds, s.Detect.TPCM)
		if n%s.Detect.DW != 0 {
			return fmt.Errorf("cloudsim: %s fidelity needs the horizon (%d samples) divisible by ΔW (%d)",
				FidelityWindow, n, s.Detect.DW)
		}
	}
	return nil
}

// ParseScenario decodes a scenario file. Unknown fields are rejected so a
// typo in a scenario file fails loudly instead of silently running defaults.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("cloudsim: parse scenario: %w", err)
	}
	return s, nil
}
