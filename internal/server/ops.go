package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// VMMetrics is one VM's row in the /metricsz report.
type VMMetrics struct {
	App            string  `json:"app"`
	Scheme         string  `json:"scheme"`
	Connected      bool    `json:"connected"`
	Profiling      bool    `json:"profiling"`
	ProfileSamples int     `json:"profile_samples"`
	Monitored      uint64  `json:"monitored"`
	Dropped        uint64  `json:"dropped"`
	Quarantined    uint64  `json:"quarantined"`
	Resumes        int     `json:"resumes"`
	Alarms         int     `json:"alarms"`
	Alarmed        bool    `json:"alarmed"`
	LastT          float64 `json:"last_t"`
}

// ShardMetrics is one ingest shard's row in the /metricsz report.
type ShardMetrics struct {
	Conns       int64  `json:"conns"`
	Samples     uint64 `json:"samples"`
	BinFrames   uint64 `json:"bin_frames"`
	Quarantined uint64 `json:"quarantined"`
	QueueDepth  int64  `json:"queue_depth"`
}

// Metrics is the /metricsz report: per-VM ingestion counters plus the
// aggregate throughput of the whole server.
type Metrics struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	ActiveVMs        int     `json:"active_vms"`
	TotalSamples     uint64  `json:"total_samples"`
	TotalAlarms      uint64  `json:"total_alarms"`
	TotalQuarantined uint64  `json:"total_quarantined"`
	TotalBinFrames   uint64  `json:"total_bin_frames"`
	IdleEvictions    uint64  `json:"idle_evictions"`
	SamplesPerSecond float64 `json:"samples_per_second"`
	// Shards has one row per ingest shard; ShardSkew is the hottest shard's
	// sample count over the per-shard mean (1.0 = perfectly even). The VM
	// name hash fixes the assignment, so persistent skew means the fleet's
	// names are clustering and a different shard count may spread better.
	Shards     []ShardMetrics       `json:"shards"`
	ShardSkew  float64              `json:"shard_skew"`
	AlarmedVMs []string             `json:"alarmed_vms"`
	VMs        map[string]VMMetrics `json:"vms"`
}

// Metrics snapshots the server's state: one row per entry of the session
// table, and the ingest totals summed over the shard rows.
func (s *Server) Metrics() Metrics {
	type entry struct {
		vm      string
		st      *vmState
		resumes int
	}
	s.mu.Lock()
	entries := make([]entry, 0, len(s.sessions))
	for vm, st := range s.sessions {
		// resumes is guarded by s.mu; copy it while we hold the lock.
		entries = append(entries, entry{vm, st, st.resumes})
	}
	s.mu.Unlock()

	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		TotalAlarms:   s.totalAlarms.Load(),
		IdleEvictions: s.idleEvictions.Load(),
		Shards:        make([]ShardMetrics, len(s.shards)),
		AlarmedVMs:    []string{},
		VMs:           make(map[string]VMMetrics, len(entries)),
	}
	var shardMax uint64
	for i, sh := range s.shards {
		row := ShardMetrics{
			Conns:       sh.conns.Load(),
			Samples:     sh.samples.Load(),
			BinFrames:   sh.frames.Load(),
			Quarantined: sh.quarantined.Load(),
			QueueDepth:  sh.queueDepth.Load(),
		}
		m.Shards[i] = row
		m.TotalSamples += row.Samples
		m.TotalQuarantined += row.Quarantined
		m.TotalBinFrames += row.BinFrames
		shardMax = max(shardMax, row.Samples)
	}
	if m.TotalSamples > 0 {
		m.ShardSkew = float64(shardMax) * float64(len(s.shards)) / float64(m.TotalSamples)
	}
	if m.UptimeSeconds > 0 {
		m.SamplesPerSecond = float64(m.TotalSamples) / m.UptimeSeconds
	}
	for _, e := range entries {
		st := e.st.sess.Stats()
		connected := e.st.connected.Load()
		if connected {
			m.ActiveVMs++
			if st.Alarmed {
				m.AlarmedVMs = append(m.AlarmedVMs, e.vm)
			}
		}
		m.VMs[e.vm] = VMMetrics{
			App:            st.App,
			Scheme:         st.Scheme,
			Connected:      connected,
			Profiling:      st.Profiling,
			ProfileSamples: st.ProfileSamples,
			Monitored:      st.Monitored,
			Dropped:        st.Dropped,
			Quarantined:    e.st.quarantined.Load(),
			Resumes:        e.resumes,
			Alarms:         st.Alarms,
			Alarmed:        st.Alarmed,
			LastT:          st.LastT,
		}
	}
	sort.Strings(m.AlarmedVMs)
	return m
}

// Handler returns the ops surface: GET /healthz (200 "ok", 503 while
// draining) and GET /metricsz (the Metrics snapshot as JSON).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
	})
	// Standard pprof endpoints so scale runs can be profiled in place
	// (the ops listener is loopback-only by default).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	return mux
}
