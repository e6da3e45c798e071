package detect

import (
	"strings"
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/workload"
)

// TestDetectorAccessors exercises the small informational methods every
// scheme exposes, which the examples and cmd tools rely on.
func TestDetectorAccessors(t *testing.T) {
	cfg := DefaultConfig()
	prof := steadyProfile(t, workload.FaceNet, 150)

	b, err := NewSDSB(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "SDS/B" {
		t.Errorf("SDSB name = %q", b.Name())
	}
	if got := b.Profile(); got.App != workload.FaceNet {
		t.Errorf("SDSB profile app = %q", got.App)
	}
	if a, m := b.Violations(); a != 0 || m != 0 {
		t.Errorf("fresh violations = (%d, %d)", a, m)
	}

	p, err := NewSDSP(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "SDS/P" {
		t.Errorf("SDSP name = %q", p.Name())
	}
	if p.Deviations() != 0 {
		t.Errorf("fresh deviations = %d", p.Deviations())
	}

	s, err := NewSDS(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SDS" {
		t.Errorf("SDS name = %q", s.Name())
	}

	k, err := NewKSTest(DefaultKSTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "KStest" {
		t.Errorf("KStest name = %q", k.Name())
	}
	if k.Collecting() {
		t.Error("fresh KStest already collecting")
	}
	k.Observe(samp(0.005, 100, 10))
	if !k.Collecting() {
		t.Error("KStest not collecting its first reference")
	}

	r, err := NewReprofiler(workload.FaceNet, prof, cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "SDS" {
		t.Errorf("reprofiler name = %q", r.Name())
	}
	if got := r.Profile(); got.App != workload.FaceNet {
		t.Errorf("reprofiler profile app = %q", got.App)
	}
	if len(r.Alarms()) != 0 || r.Alarmed() {
		t.Error("fresh reprofiler has alarm state")
	}
}

func TestSDSAlarmReasonMentionsBothSchemes(t *testing.T) {
	prof := steadyProfile(t, workload.FaceNet, 151)
	d, err := NewSDS(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(d, genSamples(t, workload.FaceNet, 152, 500, attack.Schedule{Kind: attack.BusLock, Start: 250, Ramp: 10}))
	alarms := d.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarms")
	}
	found := false
	for _, a := range alarms {
		if a.T >= 250 {
			found = true
			if want := "confirmed by SDS/P"; !strings.Contains(a.Reason, want) {
				t.Errorf("combined alarm reason %q lacks %q", a.Reason, want)
			}
		}
	}
	if !found {
		t.Fatal("no alarm after attack start")
	}
}
