package detect

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"github.com/memdos/sds/internal/pcm"
)

// workerID hands each parallel benchmark worker a distinct VM.
var workerID atomic.Uint64

// TestFleetShardDistribution: realistic VM-name populations must spread
// across the registry shards — a degenerate hash would put every stream
// back behind one lock and silently undo the striping.
func TestFleetShardDistribution(t *testing.T) {
	f := NewFleet()
	const vms = 4096
	counts := make(map[*fleetShard]int)
	for i := 0; i < vms; i++ {
		counts[f.shard(fmt.Sprintf("load-%05d", i))]++
	}
	if len(counts) != fleetShardCount {
		t.Fatalf("%d VM names hit only %d of %d shards", vms, len(counts), fleetShardCount)
	}
	// With 64 samples expected per shard, 4x over the mean would be a
	// badly skewed hash.
	for sh, n := range counts {
		if n > 4*vms/fleetShardCount {
			t.Errorf("shard %p holds %d of %d VMs — hash is skewed", sh, n, vms)
		}
	}
}

// TestStripeIsFNV1a pins the stripe mapping to FNV-1a of the name, masked
// to 64 stripes. sdsd routes a VM to ingest shard Stripe(vm) mod shards,
// so this is also what keeps a VM on the same shard across releases.
func TestStripeIsFNV1a(t *testing.T) {
	f := NewFleet()
	for i := 0; i < 4096; i++ {
		vm := fmt.Sprintf("vm-%05d", i)
		h := fnv.New32a()
		h.Write([]byte(vm))
		want := int(h.Sum32() & 63)
		if got := Stripe(vm); got != want {
			t.Fatalf("Stripe(%q) = %d, want %d", vm, got, want)
		}
		if f.shard(vm) != &f.shards[want] || f.Stripe(vm) != want {
			t.Fatalf("fleet stripes %q off Stripe", vm)
		}
	}
}

// TestFleetShardStability: the shard of a name never changes — Protect,
// Observe and Unprotect must all land on the same stripe.
func TestFleetShardStability(t *testing.T) {
	f := NewFleet()
	for i := 0; i < 100; i++ {
		vm := fmt.Sprintf("vm-%d", i)
		if f.shard(vm) != f.shard(vm) {
			t.Fatalf("shard of %q is unstable", vm)
		}
		if err := f.Protect(vm, &tickingDetector{}); err != nil {
			t.Fatal(err)
		}
		if err := f.Observe(vm, pcm.Sample{T: 0.01, Access: 1, Miss: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 100 {
		t.Fatalf("Size() = %d, want 100", f.Size())
	}
	for i := 0; i < 100; i++ {
		f.Unprotect(fmt.Sprintf("vm-%d", i))
	}
	if f.Size() != 0 {
		t.Fatalf("Size() = %d after Unprotect of every VM, want 0", f.Size())
	}
}

// TestFleetObserveZeroAlloc pins the fleet routing overhead (hash, shard
// RLock, entry lock) at zero allocations per sample, matching the
// detectors' own Observe contract.
func TestFleetObserveZeroAlloc(t *testing.T) {
	f := NewFleet()
	const vms = 64
	names := make([]string, vms)
	for i := range names {
		names[i] = fmt.Sprintf("vm-%03d", i)
		if err := f.Protect(names[i], &tickingDetector{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if err := f.Observe(names[i%vms], pcm.Sample{T: float64(i), Access: 1, Miss: 0}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// tickingDetector itself appends an alarm every 100 observes; allow
	// that amortized append, nothing more.
	if allocs > 0.05 {
		t.Fatalf("Fleet.Observe: %.3f allocs/op, want ~0 (routing must not allocate)", allocs)
	}
}

// BenchmarkFleetObserveParallel measures the Observe path under the
// server's shape: many goroutines, each feeding its own VM. With the
// sharded registry the only shared state two distinct VMs touch is a
// shard RWMutex 1/64th of the time.
func BenchmarkFleetObserveParallel(b *testing.B) {
	f := NewFleet()
	const vms = 1024
	for i := 0; i < vms; i++ {
		if err := f.Protect(fmt.Sprintf("vm-%04d", i), nopDetector{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns one VM, like one connection goroutine.
		vm := fmt.Sprintf("vm-%04d", workerID.Add(1)%vms)
		n := 0
		for pb.Next() {
			n++
			if err := f.Observe(vm, pcm.Sample{T: float64(n) * 0.01, Access: 100, Miss: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// nopDetector isolates the fleet's routing cost from detector work.
type nopDetector struct{}

func (nopDetector) Name() string       { return "nop" }
func (nopDetector) Observe(pcm.Sample) {}
func (nopDetector) Alarmed() bool      { return false }
func (nopDetector) Alarms() []Alarm    { return nil }
