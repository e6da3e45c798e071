package timeseries

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/memdos/sds/internal/randx"
)

func TestMovingAverageWindowOneIsIdentity(t *testing.T) {
	r := randx.New(40, 41)
	data := make([]float64, 200)
	for i := range data {
		data[i] = r.Normal(0, 5)
	}
	out, err := MovingAverage(data, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("len = %d, want %d", len(out), len(data))
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("W=1 MA differs at %d: %v != %v", i, out[i], data[i])
		}
	}
}

func TestMovingAverageLinearityProperty(t *testing.T) {
	// MA(a·x + b) == a·MA(x) + b.
	r := randx.New(42, 43)
	f := func(aRaw, bRaw int8) bool {
		a := float64(aRaw)/16 + 0.5
		b := float64(bRaw)
		x := make([]float64, 300)
		y := make([]float64, 300)
		for i := range x {
			x[i] = r.Normal(10, 3)
			y[i] = a*x[i] + b
		}
		mx, err1 := MovingAverage(x, 50, 10)
		my, err2 := MovingAverage(y, 50, 10)
		if err1 != nil || err2 != nil || len(mx) != len(my) {
			return false
		}
		for i := range mx {
			if math.Abs(my[i]-(a*mx[i]+b)) > 1e-6*(1+math.Abs(my[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMALinearityProperty(t *testing.T) {
	r := randx.New(44, 45)
	f := func(alphaRaw uint8, aRaw int8) bool {
		alpha := (float64(alphaRaw) + 1) / 256
		a := float64(aRaw)/16 + 0.5
		e1, err1 := NewEWMA(alpha)
		e2, err2 := NewEWMA(alpha)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			x := r.Normal(0, 4)
			v1 := e1.Push(x)
			v2 := e2.Push(a * x)
			if math.Abs(v2-a*v1) > 1e-9*(1+math.Abs(v2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	// Percentile is non-decreasing in p and bracketed by min/max.
	r := randx.New(46, 47)
	f := func(n uint8) bool {
		count := int(n)%100 + 1
		data := make([]float64, count)
		for i := range data {
			data[i] = r.Normal(0, 10)
		}
		lo, hi := MinMax(data)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(data, p)
			if v < prev-1e-12 || v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeMatchesSortedDefinition(t *testing.T) {
	r := randx.New(48, 49)
	data := make([]float64, 501)
	for i := range data {
		data[i] = r.Normal(50, 20)
	}
	s := Summarize(data)
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
		t.Fatalf("min/max mismatch: %+v", s)
	}
	if s.Median != sorted[250] {
		t.Fatalf("median %v, want %v", s.Median, sorted[250])
	}
	if s.P10 > s.Median || s.Median > s.P90 {
		t.Fatalf("percentile ordering broken: %+v", s)
	}
}

func TestStdDevShiftInvariantProperty(t *testing.T) {
	r := randx.New(50, 51)
	f := func(shiftRaw int16) bool {
		shift := float64(shiftRaw)
		x := make([]float64, 100)
		y := make([]float64, 100)
		for i := range x {
			x[i] = r.Normal(0, 7)
			y[i] = x[i] + shift
		}
		return math.Abs(StdDev(x)-StdDev(y)) < 1e-7*(1+StdDev(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// maSettlesAfter streams data through a W/ΔW averager and checks every
// emission whose window holds no index in huge against the exact window
// mean, to within 1e-9 relative. It returns the first violation, if any.
func maSettlesAfter(t *testing.T, data []float64, huge map[int]bool, w, dw int) (bad string) {
	t.Helper()
	m, err := NewMovingAverager(w, dw)
	if err != nil {
		t.Fatal(err)
	}
	last := -1 << 30 // index of the newest huge value pushed so far
	for i, x := range data {
		if huge[i] {
			last = i
		}
		v, ok := m.Push(x)
		if !ok || i-last < w {
			continue
		}
		var exact float64
		for _, y := range data[i-w+1 : i+1] {
			exact += y
		}
		exact /= float64(w)
		if !(math.Abs(v-exact) <= 1e-9*math.Abs(exact)) {
			return fmt.Sprintf("at %d (W=%d ΔW=%d): MA %v, exact window mean %v", i, w, dw, v, exact)
		}
	}
	return ""
}

// TestMovingAverageRecoversFromGlitch: one huge admitted value, or two that
// overflow the running sum to +Inf, must not bias the MA once they have left
// the window (a counter glitch of 1e25 used to leave it 99% low for good).
func TestMovingAverageRecoversFromGlitch(t *testing.T) {
	for _, glitch := range [][]float64{{1e12}, {1e16}, {1e20}, {1e25}, {math.MaxFloat64}, {1.7e308, 1.7e308}} {
		r := randx.New(7, 8)
		data := make([]float64, 2000)
		for i := range data {
			data[i] = r.Uniform(1.9e5, 2.6e5)
		}
		huge := map[int]bool{}
		for k, g := range glitch {
			data[1000+k] = g
			huge[1000+k] = true
		}
		if bad := maSettlesAfter(t, data, huge, 200, 50); bad != "" {
			t.Errorf("glitch %v: %s", glitch, bad)
		}
	}
}

// TestMovingAverageSettlesProperty: for random window geometry and counter
// streams with bursts of values anywhere up to MaxFloat64, the streamed MA
// equals the exact window mean once every huge value has left the window.
func TestMovingAverageSettlesProperty(t *testing.T) {
	r := randx.New(44, 45)
	f := func() bool {
		w := 1 + r.IntN(256)
		dw := 1 + r.IntN(w)
		data := make([]float64, 4*w+400)
		for i := range data {
			data[i] = r.Uniform(0, 1e6)
		}
		huge := map[int]bool{}
		for k := r.IntN(6); k >= 0; k-- {
			i := r.IntN(len(data) - 3)
			for run := 1 + r.IntN(3); run > 0; run-- {
				// Log-uniform over [1e7, MaxFloat64].
				data[i] = math.Min(math.Pow(10, r.Uniform(7, 309)), math.MaxFloat64)
				huge[i] = true
				i++
			}
		}
		if bad := maSettlesAfter(t, data, huge, w, dw); bad != "" {
			t.Log(bad)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMovingAverager drives the block-mean averager with arbitrary window
// geometry and counter streams, where a tag byte of 0xF0 or more splices in
// eight raw float64 bytes (NaN, ±Inf, huge or subnormal values). It checks
// three things: emissions land exactly at sample W and then every ΔW;
// every emission whose window holds no value above 1e15 in magnitude (or
// NaN) matches the exact window mean to 1e-9 relative; and g = gcd(W, ΔW)
// Push calls give bit for bit what one PushBlock of their mean gives.
func FuzzMovingAverager(f *testing.F) {
	f.Add(uint8(199), uint8(49), []byte{1, 2, 3, 250, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 9})
	f.Add(uint8(199), uint8(149), []byte{7, 0xff, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 200})
	f.Add(uint8(199), uint8(29), []byte{0xf5, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x48})
	f.Add(uint8(0), uint8(0), []byte{42})
	f.Fuzz(func(t *testing.T, wRaw, dwRaw uint8, raw []byte) {
		w := 1 + int(wRaw)
		dw := 1 + int(dwRaw)%w
		var data []float64
		for i := 0; len(data) < 4096 && len(raw) > 0; i++ {
			tag := raw[0]
			raw = raw[1:]
			if tag < 0xf0 || len(raw) < 8 {
				data = append(data, float64(tag)*1e3+float64(i%7)*0.125)
				continue
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			if math.Abs(x) <= 1e15 {
				x = math.Abs(x) // counters are non-negative
			}
			data = append(data, x)
		}
		// Repeat the stream so every geometry fills several windows.
		for len(data) > 0 && len(data) < 3*w+dw {
			data = append(data, data...)
		}

		m, err := NewMovingAverager(w, dw)
		if err != nil {
			t.Fatal(err)
		}
		blk, _ := NewMovingAverager(w, dw)
		g := gcd(w, dw)
		last := -1 << 30 // index of the newest value above 1e15 (or NaN)
		var bsum float64
		for i, x := range data {
			if !(math.Abs(x) <= 1e15) {
				last = i
			}
			v, ok := m.Push(x)
			if want := i+1 >= w && (i+1-w)%dw == 0; ok != want {
				t.Fatalf("W=%d ΔW=%d: sample %d emitted=%v, want %v", w, dw, i, ok, want)
			}
			bsum += x
			if (i+1)%g == 0 {
				bv, bok := blk.PushBlock(bsum / float64(g))
				bsum = 0
				if bok != ok || math.Float64bits(bv) != math.Float64bits(v) {
					t.Fatalf("W=%d ΔW=%d: sample %d Push gave (%v, %v), PushBlock (%v, %v)", w, dw, i, v, ok, bv, bok)
				}
			}
			if !ok || i-last < w {
				continue
			}
			var exact float64
			for _, y := range data[i-w+1 : i+1] {
				exact += y
			}
			exact /= float64(w)
			if !(math.Abs(v-exact) <= 1e-9*math.Abs(exact)) {
				t.Fatalf("W=%d ΔW=%d: at %d MA %v, exact window mean %v", w, dw, i, v, exact)
			}
		}
	})
}
