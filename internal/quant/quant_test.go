package quant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeWithinBound(t *testing.T) {
	q := New(1e-3)
	for _, diff := range []float64{0, 1e-4, -1e-4, 0.5, -0.5, 32.76, -32.76} {
		sym, delta, ok := q.Encode(diff)
		if !ok {
			t.Fatalf("diff %v escaped unexpectedly", diff)
		}
		if sym == Escape {
			t.Fatalf("non-escape diff produced escape symbol")
		}
		if math.Abs(diff-delta) > 1e-3 {
			t.Fatalf("diff %v delta %v error %v > eb", diff, delta, math.Abs(diff-delta))
		}
		if got := q.Decode(sym); got != delta {
			t.Fatalf("Decode(%d)=%v want %v", sym, got, delta)
		}
	}
}

func TestEscapeOnLargeDiff(t *testing.T) {
	q := New(1e-3)
	// representable range is ±(Radius−1)·2eb ≈ ±65.5
	for _, diff := range []float64{100, -100, 1e12} {
		if sym, _, ok := q.Encode(diff); ok || sym != Escape {
			t.Fatalf("diff %v should escape", diff)
		}
	}
}

func TestEscapeOnNonFinite(t *testing.T) {
	q := New(1)
	for _, diff := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, ok := q.Encode(diff); ok {
			t.Fatalf("non-finite %v should escape", diff)
		}
	}
}

func TestBoundaryCodes(t *testing.T) {
	q := New(0.5)
	// code Radius−1 = 32767 → diff 32767·1.0
	diff := float64(Radius-1) * 1.0
	sym, delta, ok := q.Encode(diff)
	if !ok {
		t.Fatalf("max representable diff escaped")
	}
	if math.Abs(diff-delta) > 0.5 {
		t.Fatalf("boundary error %v", math.Abs(diff-delta))
	}
	if sym != 2*Radius-1 {
		t.Fatalf("boundary symbol %d", sym)
	}
	// one step beyond must escape
	if _, _, ok := q.Encode(float64(Radius) * 1.0); ok {
		t.Fatal("overflow code did not escape")
	}
}

func TestQuickErrorBound(t *testing.T) {
	f := func(diffRaw float64, ebRaw uint16) bool {
		eb := 1e-6 + float64(ebRaw)/1000 // (0, ~65.5]
		q := New(eb)
		diff := math.Mod(diffRaw, 1e6)
		if math.IsNaN(diff) {
			return true
		}
		sym, delta, ok := q.Encode(diff)
		if !ok {
			return sym == Escape
		}
		return math.Abs(diff-delta) <= eb && q.Decode(sym) == delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestEscapeOnOverflowingStep pins a bound so large that the bin width
// 2·eb overflows to +Inf: the zero code's increment 0·Inf is NaN, which
// must escape rather than reach a reconstruction.
func TestEscapeOnOverflowingStep(t *testing.T) {
	q := New(1e308)
	for _, diff := range []float64{0, 1, -3e5} {
		if sym, delta, ok := q.Encode(diff); ok || sym != Escape {
			t.Fatalf("diff %v: symbol %d, delta %v accepted", diff, sym, delta)
		}
	}
}

// TestBinEdgeEscape pins the guard at bin edges where the exact product
// code·2eb and its float64 rounding fall on opposite sides of the
// bound: the escape decision must follow the rounded increment the
// decoder rebuilds. At eb = 0.1, diff 1.1 rounds to code 6, whose
// rounded increment 1.2000000000000002 misses the bound while the exact
// 1.2 meets it — a guard fused with the product would accept a value
// the decoder then rebuilds out of bound. At 0.9 (code 5) the sides
// are swapped, and the value is accepted.
func TestBinEdgeEscape(t *testing.T) {
	q := New(0.1)
	for _, tc := range []struct {
		diff float64
		code int32
	}{{1.1, 6}, {0.9, 5}} {
		step := 2 * q.eb
		exact := math.Abs(math.FMA(-float64(tc.code), step, tc.diff)) <= q.eb
		rounded := math.Abs(tc.diff-float64(float64(tc.code)*step)) <= q.eb
		if exact == rounded {
			t.Fatalf("diff %v: exact and rounded increments agree; not a straddling edge", tc.diff)
		}
		sym, delta, ok := q.Encode(tc.diff)
		if ok != rounded {
			t.Fatalf("diff %v: accepted %v, want %v (the rounded increment's verdict)", tc.diff, ok, rounded)
		}
		if ok && (sym != uint16(tc.code+Radius) || delta != q.Decode(sym)) {
			t.Fatalf("diff %v: symbol %d, delta %v; want code %d and the decoder's increment", tc.diff, sym, delta, tc.code)
		}
	}
}
