package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/memdos/sds/internal/pcm"
)

// scrape decodes one /metricsz response.
func scrape(t *testing.T, s *Server) Metrics {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metricsz", nil))
	var m Metrics
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("metricsz is not JSON: %v\n%s", err, rr.Body.String())
	}
	return m
}

// TestMetricsAlarmedVMs: alarmed_vms lists exactly the connected, alarmed
// VMs of the session table, sorted, in agreement with every row's alarmed
// flag; a VM whose stream closed keeps its row but leaves the list.
func TestMetricsAlarmedVMs(t *testing.T) {
	s := New(Options{ProfileSeconds: 60, App: "facenet"})
	streams := map[string]*Stream{}
	// Opened out of name order, so a registration-ordered list would show.
	for _, vm := range []string{"vm-z", "vm-m", "vm-a", "vm-c"} {
		st, err := s.OpenStream(StreamSpec{VM: vm})
		if err != nil {
			t.Fatal(err)
		}
		attackAt := 100.0
		if vm == "vm-m" {
			attackAt = 0 // the clean control
		}
		if _, err := simulateStream(ReplaySpec{App: "facenet", Seconds: 160, AttackAt: attackAt, Seed: 7}, st.Observe); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Session().Alarmed(), attackAt > 0; got != want {
			t.Fatalf("%s: alarmed = %v at stream end, want %v", vm, got, want)
		}
		streams[vm] = st
	}
	if _, err := streams["vm-c"].Close(); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, s)
	if want := []string{"vm-a", "vm-z"}; !reflect.DeepEqual(m.AlarmedVMs, want) {
		t.Errorf("alarmed_vms = %q, want %q", m.AlarmedVMs, want)
	}
	listed := map[string]bool{}
	for _, vm := range m.AlarmedVMs {
		listed[vm] = true
	}
	for vm, row := range m.VMs {
		if listed[vm] != (row.Connected && row.Alarmed) {
			t.Errorf("%s: listed=%v but row connected=%v alarmed=%v", vm, listed[vm], row.Connected, row.Alarmed)
		}
	}
	if row := m.VMs["vm-c"]; row.Connected || !row.Alarmed || row.Alarms == 0 {
		t.Errorf("closed vm-c row = %+v, want disconnected with its alarm state kept", row)
	}
	if m.ActiveVMs != 3 || len(m.VMs) != 4 {
		t.Errorf("active_vms = %d over %d rows, want 3 over 4", m.ActiveVMs, len(m.VMs))
	}
}

// TestMetricsInProcessShardRows: samples fed through in-process streams are
// counted on the shard their VM stripes to, and the shard rows sum to the
// server totals.
func TestMetricsInProcessShardRows(t *testing.T) {
	const shards = 4
	s := New(Options{ProfileSeconds: 12, Shards: shards})
	want := make([]uint64, shards)
	var total uint64
	for i := 0; i < 12; i++ {
		vm := fmt.Sprintf("local-%02d", i)
		st, err := s.OpenStream(StreamSpec{VM: vm})
		if err != nil {
			t.Fatal(err)
		}
		n := 1250 + 50*i
		for k := 0; k < n; k++ {
			if err := st.Observe(synthSample(k, 0.01, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			st.Close()
		}
		want[stripe(vm)%shards] += uint64(n)
		total += uint64(n)
	}

	m := scrape(t, s)
	var sum uint64
	for i, row := range m.Shards {
		if row.Samples != want[i] {
			t.Errorf("shard %d row counts %d samples, want %d", i, row.Samples, want[i])
		}
		sum += row.Samples
	}
	if sum != m.TotalSamples || m.TotalSamples != total {
		t.Errorf("shard rows sum to %d, total_samples %d, want %d", sum, m.TotalSamples, total)
	}
}

// TestStreamObserveBatchCountsShardRow: batches fed through an in-process
// stream count on the VM's shard row and in total_samples, like a
// connection's batches.
func TestStreamObserveBatchCountsShardRow(t *testing.T) {
	const (
		shards = 4
		total  = 2000
	)
	s := New(Options{ProfileSeconds: 12, Shards: shards})
	st, err := s.OpenStream(StreamSpec{VM: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]pcm.Sample, 0, 250)
	for k := 0; k < total; k++ {
		batch = append(batch, synthSample(k, 0.01, 100))
		if len(batch) == cap(batch) {
			if n, err := st.ObserveBatch(batch); err != nil || n != len(batch) {
				t.Fatalf("ObserveBatch = %d, %v; want %d, nil", n, err, len(batch))
			}
			batch = batch[:0]
		}
	}

	m := scrape(t, s)
	if m.TotalSamples != total {
		t.Errorf("total_samples = %d, want %d", m.TotalSamples, total)
	}
	home := stripe("batched") % shards
	for i, row := range m.Shards {
		want := uint64(0)
		if i == home {
			want = total
		}
		if row.Samples != want {
			t.Errorf("shard %d row counts %d samples, want %d", i, row.Samples, want)
		}
	}
	if got := st.Session().Stats().Ingested(); got != total {
		t.Errorf("session ingested %d samples, want %d", got, total)
	}
}
