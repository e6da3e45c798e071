package sds

import (
	"testing"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	prof, err := CollectProfile(KMeans, 1, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.App != KMeans || prof.MeanAccess <= 0 {
		t.Fatalf("profile = %+v", prof)
	}
	det, err := NewSDS(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewApplication(KMeans, 2)
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := Simulate(app, det, cfg, SimulateOptions{
		Seconds: 240,
		Attack:  AttackSchedule{Kind: BusLockAttack, Start: 120, Ramp: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alarms {
		if a.T >= 120 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no alarm after attack start; alarms: %+v", alarms)
	}
}

func TestPublicAPIPeriodicFlow(t *testing.T) {
	cfg := DefaultConfig()
	prof, err := CollectProfile(FaceNet, 3, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Periodic {
		t.Fatal("FaceNet profile not periodic")
	}
	var estimates []PeriodStat
	det, err := NewSDSP(prof, cfg, WithSDSPEstimateHook(func(p PeriodStat) {
		estimates = append(estimates, p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewApplication(FaceNet, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(app, det, cfg, SimulateOptions{
		Seconds: 300,
		Attack:  AttackSchedule{Kind: CleanseAttack, Start: 150, Ramp: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if !det.Alarmed() {
		t.Fatal("SDS/P did not alarm under a persisting attack")
	}
	if len(estimates) == 0 {
		t.Fatal("estimate hook never fired")
	}
}

func TestPublicAPIKSTestThrottleLoop(t *testing.T) {
	cfg := DefaultConfig()
	det, err := NewKSTest(DefaultKSTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewApplication(Bayes, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	if _, err := Simulate(app, det, cfg, SimulateOptions{
		Seconds: 200,
		Attack:  AttackSchedule{Kind: CleanseAttack, Start: 100, Ramp: 8},
		OnSample: func(s Sample, alarmed bool) {
			samples++
		},
	}); err != nil {
		t.Fatal(err)
	}
	if samples != 20000 {
		t.Fatalf("observed %d samples, want 20000", samples)
	}
	if !det.Alarmed() {
		t.Fatal("KStest did not alarm under a persisting attack")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := NewApplication("nope", 1); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := CollectProfile(KMeans, 1, 900, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := Simulate(nil, nil, DefaultConfig(), SimulateOptions{Seconds: 10}); err == nil {
		t.Error("nil inputs accepted")
	}
	app, err := NewApplication(KMeans, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(KMeans, 1, 300, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewSDSB(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(app, det, DefaultConfig(), SimulateOptions{}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestChebyshevReexports(t *testing.T) {
	hc, err := ChebyshevHC(1.125, 0.999)
	if err != nil || hc != 30 {
		t.Fatalf("ChebyshevHC = (%d, %v), want (30, nil)", hc, err)
	}
	bound, err := ChebyshevFalseAlarmBound(1.125, 30)
	if err != nil || bound > 0.001 {
		t.Fatalf("bound = (%v, %v)", bound, err)
	}
}

func TestApplicationsList(t *testing.T) {
	apps := Applications()
	if len(apps) != 10 {
		t.Fatalf("Applications() has %d entries", len(apps))
	}
	periodic := PeriodicApplications()
	if len(periodic) != 2 || periodic[0] != PCA || periodic[1] != FaceNet {
		t.Fatalf("PeriodicApplications() = %v", periodic)
	}
}
