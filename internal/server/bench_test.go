package server

import (
	"testing"

	"github.com/memdos/sds/internal/pcm"
)

// benchTPCM is the sampling interval of the synthetic monitored stream.
const benchTPCM = 0.01

// monitoredSession returns an sds session driven through its 20 s Stage-1
// window on synthetic samples, and the index of the next sample, so what
// follows exercises only the monitored stage.
func monitoredSession(tb testing.TB) (*Session, int) {
	tb.Helper()
	const profile = 20.0
	sess, err := NewSession(StreamSpec{
		VM: "bench", App: "synth", Scheme: "sds", ProfileSeconds: profile,
	})
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	for ; i < int(profile/benchTPCM)+1; i++ {
		if err := sess.Observe(synthSample(i, benchTPCM, 1000)); err != nil {
			tb.Fatal(err)
		}
	}
	if sess.Profiling() {
		tb.Fatal("session still profiling after the Stage-1 window")
	}
	return sess, i
}

// observeFrame fills batch with the samples from index i on and observes
// them in one ObserveBatch call, as the binary plane does per frame. It
// returns the index of the next sample.
func observeFrame(tb testing.TB, sess *Session, batch []pcm.Sample, i int) int {
	for j := range batch {
		batch[j] = synthSample(i, benchTPCM, 1000)
		i++
	}
	if _, err := sess.ObserveBatch(batch); err != nil {
		tb.Fatal(err)
	}
	return i
}

// BenchmarkSessionObserveBatch measures the monitored-stage ingest cost of
// the batched path the binary frame plane drives: one ObserveBatch call per
// 256-sample frame. ns/op is per frame.
func BenchmarkSessionObserveBatch(b *testing.B) {
	sess, i := monitoredSession(b)
	batch := make([]pcm.Sample, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i = observeFrame(b, sess, batch, i)
	}
}

// TestSessionObserveBatchZeroAlloc pins the benchmark's allocs/op at zero:
// the wire ingest hot path's steady state allocates nothing per frame.
func TestSessionObserveBatchZeroAlloc(t *testing.T) {
	sess, i := monitoredSession(t)
	batch := make([]pcm.Sample, 256)
	i = observeFrame(t, sess, batch, i)
	if allocs := testing.AllocsPerRun(100, func() {
		i = observeFrame(t, sess, batch, i)
	}); allocs != 0 {
		t.Fatalf("Session.ObserveBatch: %.2f allocs per frame in the monitored stage, want 0", allocs)
	}
}
