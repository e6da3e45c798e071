package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
)

// The ingest plane applies its 256 KiB socket read buffer through this
// interface, uniformly across transports — both conn types the daemon
// serves must keep implementing it.
var (
	_ interface{ SetReadBuffer(int) error } = (*net.TCPConn)(nil)
	_ interface{ SetReadBuffer(int) error } = (*net.UnixConn)(nil)
)

// readBufferConn records SetReadBuffer calls; everything else is the
// wrapped conn.
type readBufferConn struct {
	net.Conn
	calls chan int
}

func (c *readBufferConn) SetReadBuffer(n int) error {
	select {
	case c.calls <- n:
	default:
	}
	return nil
}

// TestSetReadBufferAppliedUniformly: the server sizes the receive buffer
// on ANY conn that can take one — the regression here is the old
// *net.TCPConn type assertion, which silently skipped unix sockets.
func TestSetReadBufferAppliedUniformly(t *testing.T) {
	s := New(Options{ProfileSeconds: 20})
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	conn := &readBufferConn{Conn: srvEnd, calls: make(chan int, 1)}
	go s.handleConn(conn)
	go fmt.Fprintf(cliEnd, "sds/1 vm=rb profile=20\n")
	select {
	case n := <-conn.calls:
		if n != 256*1024 {
			t.Errorf("SetReadBuffer(%d), want %d", n, 256*1024)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never sized the receive buffer")
	}
	cliEnd.Close()
}

// TestListenShardsFallback: non-TCP networks and single-shard servers get
// exactly one plain listener; on Linux a multi-shard TCP server gets one
// SO_REUSEPORT accept queue per shard, all bound to the same address.
func TestListenShardsFallback(t *testing.T) {
	t.Run("unix is never sharded", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sds.sock")
		ls, sharded, err := ListenShards("unix", path, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer ls[0].Close()
		if len(ls) != 1 || sharded {
			t.Errorf("unix: %d listeners, sharded=%v; want 1 unsharded", len(ls), sharded)
		}
	})
	t.Run("single shard takes the plain path", func(t *testing.T) {
		ls, sharded, err := ListenShards("tcp", "127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ls[0].Close()
		if len(ls) != 1 || sharded {
			t.Errorf("n=1: %d listeners, sharded=%v; want 1 unsharded", len(ls), sharded)
		}
	})
	t.Run("multi-shard tcp", func(t *testing.T) {
		ls, sharded, err := ListenShards("tcp", "127.0.0.1:0", 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ls {
			defer l.Close()
		}
		if runtime.GOOS != "linux" {
			if len(ls) != 1 || sharded {
				t.Errorf("non-linux: %d listeners, sharded=%v; want 1 unsharded", len(ls), sharded)
			}
			return
		}
		if len(ls) != 4 || !sharded {
			t.Fatalf("linux: %d listeners, sharded=%v; want 4 sharded", len(ls), sharded)
		}
		addr := ls[0].Addr().String()
		for i, l := range ls {
			if l.Addr().String() != addr {
				t.Errorf("listener %d bound %s, want %s (one address, many queues)", i, l.Addr(), addr)
			}
		}
	})
}

// TestStripeIsFNV1a pins the stripe mapping to FNV-1a of the name, masked
// to 64 stripes. sdsd routes a VM to ingest shard stripe(vm) mod shards,
// so this is also what keeps a VM on the same shard across releases.
func TestStripeIsFNV1a(t *testing.T) {
	for i := 0; i < 4096; i++ {
		vm := fmt.Sprintf("vm-%05d", i)
		h := fnv.New32a()
		h.Write([]byte(vm))
		if got, want := stripe(vm), int(h.Sum32()&63); got != want {
			t.Fatalf("stripe(%q) = %d, want %d", vm, got, want)
		}
	}
}

// TestShardAffinity is the affinity invariant under -race: every VM's
// samples are accounted on exactly the shard its name stripes to, no
// matter which accept queue or decode path (event loop vs pump) carried
// them. With concurrent binary streams on all shards, any cross-shard
// observation shows up as a counter mismatch — and as a data race on
// session state. The expected shard comes from stripe, the function
// shardFor routes by.
func TestShardAffinity(t *testing.T) {
	const (
		vms     = 16
		tpcm    = 0.01
		total   = 3000
		profile = 20.0
	)
	s, addr := startServer(t, Options{ProfileSeconds: profile, Shards: 4})
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs := fmt.Sprintf("sds/1 vm=aff-%02d profile=%g frames=bin", i, profile)
			res := runClient(t, addr, hs, synthBin(t, 0, total, tpcm, 100))
			if len(res.errorLines) > 0 {
				t.Errorf("vm %d: server errors: %v", i, res.errorLines)
			}
			if res.done == nil || res.done.samples != total {
				t.Errorf("vm %d: done = %+v, want %d samples", i, res.done, total)
			}
		}(i)
	}
	wg.Wait()

	expected := make([]uint64, len(s.shards))
	for i := 0; i < vms; i++ {
		expected[stripe(fmt.Sprintf("aff-%02d", i))%len(s.shards)] += total
	}
	var sum uint64
	for i, sh := range s.shards {
		got := sh.samples.Load()
		if got != expected[i] {
			t.Errorf("shard %d accounted %d samples, want %d (affinity broken)", i, got, expected[i])
		}
		if c := sh.conns.Load(); c != 0 {
			t.Errorf("shard %d still reports %d attached conns", i, c)
		}
		sum += got
	}
	if m := s.Metrics(); sum != m.TotalSamples || m.TotalSamples != vms*total {
		t.Errorf("shard sum %d, server total %d, want %d", sum, m.TotalSamples, vms*total)
	}
}

// synthBinOpen renders samples [from, to) as binary frames with NO end
// frame — a stream that is still mid-flight.
func synthBinOpen(t *testing.T, from, to int, tpcm, base float64) []byte {
	t.Helper()
	var buf []pcm.Sample
	for i := from; i < to; i++ {
		buf = append(buf, synthSample(i, tpcm, base))
	}
	var b writerBuffer
	w := feed.NewBinWriter(&b)
	if err := w.WriteBatch(buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.data
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// TestServerShardedGracefulDrain: a multi-shard server behind its
// SO_REUSEPORT accept queues drains mid-flight binary streams on every
// shard — all samples accounted, every client gets its done line.
func TestServerShardedGracefulDrain(t *testing.T) {
	const (
		clients = 8
		tpcm    = 0.01
		total   = 2500
	)
	s := New(Options{ProfileSeconds: 20, Shards: 4})
	ls, _, err := ListenShards("tcp", "127.0.0.1:0", s.ShardCount())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		go s.Serve(l)
	}
	addr := ls[0].Addr().String()

	var wg sync.WaitGroup
	drained := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer conn.Close()
			res := readResponses(t, conn, func() {
				fmt.Fprintf(conn, "sds/1 vm=sdrain-%02d profile=20 frames=bin\n", i)
				if _, err := conn.Write(synthBinOpen(t, 0, total, tpcm, 100)); err != nil {
					t.Errorf("client %d: body write: %v", i, err)
					return
				}
				// Hold the stream open: the server must drain it.
				<-drained
			})
			if res.done == nil {
				t.Errorf("client %d: no done line after drain", i)
				return
			}
			if res.done.samples != total {
				t.Errorf("client %d: drained stream accounted %d of %d samples", i, res.done.samples, total)
			}
		}(i)
	}

	deadline := time.Now().Add(20 * time.Second)
	for s.Metrics().TotalSamples < clients*total {
		if time.Now().After(deadline) {
			t.Fatalf("server processed %d of %d samples before drain", s.Metrics().TotalSamples, clients*total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	close(drained)
	wg.Wait()
}

// TestMetricsShardGauges: /metricsz carries one gauge block per shard and
// their sums reconcile with the server totals.
func TestMetricsShardGauges(t *testing.T) {
	const (
		vms   = 8
		total = 2000
	)
	s, addr := startServer(t, Options{ProfileSeconds: 10, Shards: 4})
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs := fmt.Sprintf("sds/1 vm=gauge-%d profile=10 frames=bin", i)
			runClient(t, addr, hs, synthBin(t, 0, total, 0.01, 100))
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if len(m.Shards) != s.ShardCount() {
		t.Fatalf("metrics carry %d shard blocks, want %d", len(m.Shards), s.ShardCount())
	}
	var samples, frames uint64
	for _, sh := range m.Shards {
		samples += sh.Samples
		frames += sh.BinFrames
		if sh.Conns != 0 {
			t.Errorf("shard gauge reports %d attached conns after all streams closed", sh.Conns)
		}
	}
	if samples != m.TotalSamples {
		t.Errorf("shard samples sum to %d, server total %d", samples, m.TotalSamples)
	}
	if frames != m.TotalBinFrames {
		t.Errorf("shard frames sum to %d, server total %d", frames, m.TotalBinFrames)
	}
	if m.ShardSkew < 1.0 {
		t.Errorf("shard skew %.3f < 1.0 (skew is max/mean, so ≥ 1 whenever samples flowed)", m.ShardSkew)
	}
}
