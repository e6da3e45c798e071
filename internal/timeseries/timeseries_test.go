package timeseries

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/memdos/sds/internal/randx"
)

func TestNewMovingAveragerValidation(t *testing.T) {
	tests := []struct {
		name  string
		w, dw int
		ok    bool
	}{
		{"valid", 200, 50, true},
		{"step equals window", 10, 10, true},
		{"zero window", 0, 1, false},
		{"zero step", 10, 0, false},
		{"negative window", -5, 1, false},
		{"step exceeds window", 10, 11, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewMovingAverager(tt.w, tt.dw)
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok {
				if err == nil {
					t.Fatal("expected error")
				}
				if !errors.Is(err, ErrBadWindow) {
					t.Fatalf("error %v is not ErrBadWindow", err)
				}
			}
		})
	}
}

func TestMovingAverageEmissionSchedule(t *testing.T) {
	m, err := NewMovingAverager(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []float64
	for i := 1; i <= 10; i++ {
		if v, ok := m.Push(float64(i)); ok {
			emitted = append(emitted, v)
		}
	}
	// Windows: [1..4]=2.5, [3..6]=4.5, [5..8]=6.5, [7..10]=8.5.
	want := []float64{2.5, 4.5, 6.5, 8.5}
	if len(emitted) != len(want) {
		t.Fatalf("emitted %v, want %v", emitted, want)
	}
	for i := range want {
		if math.Abs(emitted[i]-want[i]) > 1e-12 {
			t.Errorf("window %d = %v, want %v", i, emitted[i], want[i])
		}
	}
}

func TestMovingAverageMatchesPaperEquation(t *testing.T) {
	// Eq. 1: M_n = mean of raw samples {A_{1+n·ΔW} .. A_{W+n·ΔW}}. Table 1's
	// geometry has gcd(W, ΔW) = ΔW; the other two rows have blocks shorter
	// than the step (Fig. 16's ΔW = 150, and ΔW = 30 with gcd 10).
	for _, tc := range []struct{ w, dw int }{{200, 50}, {200, 150}, {200, 30}} {
		r := randx.New(1, 1)
		data := make([]float64, 1000)
		for i := range data {
			data[i] = r.Uniform(0, 100)
		}
		got, err := MovingAverage(data, tc.w, tc.dw)
		if err != nil {
			t.Fatal(err)
		}
		wantN := (len(data)-tc.w)/tc.dw + 1
		if len(got) != wantN {
			t.Fatalf("W=%d ΔW=%d: got %d windows, want %d", tc.w, tc.dw, len(got), wantN)
		}
		for n := range got {
			want := Mean(data[n*tc.dw : n*tc.dw+tc.w])
			if math.Abs(got[n]-want) > 1e-9 {
				t.Fatalf("W=%d ΔW=%d: window %d = %v, want %v", tc.w, tc.dw, n, got[n], want)
			}
		}
	}
}

func TestMovingAverageReset(t *testing.T) {
	m, _ := NewMovingAverager(3, 1)
	for i := 0; i < 5; i++ {
		m.Push(float64(i))
	}
	m.Reset()
	if _, ok := m.Push(1); ok {
		t.Fatal("emitted immediately after reset")
	}
	m.Push(2)
	v, ok := m.Push(3)
	if !ok || math.Abs(v-2) > 1e-12 {
		t.Fatalf("after reset got (%v,%v), want (2,true)", v, ok)
	}
}

func TestMovingAverageBoundedProperty(t *testing.T) {
	// Property: every MA output lies within [min, max] of the inputs.
	r := randx.New(2, 3)
	f := func(wRaw, dwRaw uint8, n uint16) bool {
		w := int(wRaw)%50 + 1
		dw := int(dwRaw)%w + 1
		count := int(n)%400 + w
		data := make([]float64, count)
		for i := range data {
			data[i] = r.Normal(0, 10)
		}
		out, err := MovingAverage(data, w, dw)
		if err != nil {
			return false
		}
		lo, hi := MinMax(data)
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return len(out) == (count-w)/dw+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{-0.1, 0, 1.0001, math.NaN()} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("NewEWMA(%v) succeeded, want error", alpha)
		}
	}
	for _, alpha := range []float64{0.01, 0.2, 1} {
		if _, err := NewEWMA(alpha); err != nil {
			t.Errorf("NewEWMA(%v) failed: %v", alpha, err)
		}
	}
}

func TestEWMAMatchesPaperEquation(t *testing.T) {
	// Eq. 2: S_0 = M_0; S_n = (1-α)S_{n-1} + αM_n.
	e, err := NewEWMA(0.2)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{10, 20, 30, 40}
	want := []float64{10, 12, 15.6, 20.48}
	for i, x := range in {
		if got := e.Push(x); math.Abs(got-want[i]) > 1e-12 {
			t.Fatalf("S_%d = %v, want %v", i, got, want[i])
		}
	}
	if got := e.Value(); math.Abs(got-20.48) > 1e-12 {
		t.Fatalf("Value() = %v, want 20.48", got)
	}
}

func TestEWMAAlphaOneIsIdentity(t *testing.T) {
	// The paper notes that α=1 reduces EWMA to the MA series itself.
	e, _ := NewEWMA(1)
	r := randx.New(4, 5)
	for i := 0; i < 100; i++ {
		x := r.Uniform(-50, 50)
		if got := e.Push(x); got != x {
			t.Fatalf("alpha=1 Push(%v) = %v", x, got)
		}
	}
}

func TestEWMABoundedProperty(t *testing.T) {
	r := randx.New(6, 7)
	f := func(alphaRaw uint8, n uint8) bool {
		alpha := (float64(alphaRaw) + 1) / 256
		e, err := NewEWMA(alpha)
		if err != nil {
			return false
		}
		count := int(n) + 1
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < count; i++ {
			x := r.Normal(0, 5)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			v := e.Push(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAReset(t *testing.T) {
	e, _ := NewEWMA(0.5)
	e.Push(100)
	e.Reset()
	if got := e.Push(4); got != 4 {
		t.Fatalf("first push after reset = %v, want 4", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(data); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(data); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{3}); got != 0 {
		t.Errorf("StdDev of one point = %v, want 0", got)
	}
}

func TestConstantSeriesInvariants(t *testing.T) {
	// MA of a constant series is that constant, and its σ is zero.
	data := make([]float64, 500)
	for i := range data {
		data[i] = 7.5
	}
	ma, err := MovingAverage(data, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ma {
		if math.Abs(v-7.5) > 1e-12 {
			t.Fatalf("MA of constant = %v", v)
		}
	}
	if got := StdDev(ma); got != 0 {
		t.Fatalf("StdDev of constant MA = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4}, {90, 4.6},
	}
	for _, tt := range tests {
		if got := Percentile(data, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary %+v", s)
	}
	var zero Summary
	if got := Summarize(nil); got != zero {
		t.Fatalf("Summarize(nil) = %+v, want zero", got)
	}
}

func TestDemean(t *testing.T) {
	out := Demean([]float64{1, 2, 3})
	if math.Abs(Mean(out)) > 1e-12 {
		t.Fatalf("demeaned mean = %v", Mean(out))
	}
	if out[0] != -1 || out[2] != 1 {
		t.Fatalf("Demean = %v", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"t", "v"}, []float64{0, 1}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "t,v" {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}

func TestWriteCSVValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Error("header/column mismatch accepted")
	}
	if err := WriteCSV(&buf, []string{"a", "b"}, []float64{1, 2}, []float64{3}); err == nil {
		t.Error("ragged columns accepted")
	}
}
