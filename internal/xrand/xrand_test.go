package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too similar: %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(7)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Fatalf("uniform variance %v", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2, sum4 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
		sum4 += v * v * v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	kurt := sum4 / n / (variance * variance)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
	if math.Abs(kurt-3) > 0.15 {
		t.Fatalf("normal kurtosis %v", kurt)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("Intn never produced %d", i)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	r := New(9)
	x := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), x...)
	r.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	sum := 0
	for _, v := range x {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", x)
	}
	_ = orig
}

func TestSplitIndependence(t *testing.T) {
	r := New(13)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams too similar: %d", same)
	}
}
