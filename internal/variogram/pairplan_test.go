package variogram

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// sampledDirect is the sampled scan with every plan bypassed: the
// draw-as-you-go reference a plan must reproduce bitwise.
func sampledDirect[T float32 | float64](t *testing.T, data []T, shape []int, o Options) *Empirical {
	t.Helper()
	e, err := sampledScanAt(bg, func(i int) float64 { return float64(data[i]) }, shape, o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustPlan builds the plan of (shape, o), failing if the key is not
// plannable.
func mustPlan(t *testing.T, shape []int, o Options) *pairPlan {
	t.Helper()
	_, shift, ok := planKeyOf(shape, o)
	if !ok {
		t.Fatalf("shape %v %+v: key not plannable", shape, o)
	}
	p, err := buildPlan(bg, shape, o, shift)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSampledPlanMatchesDirect pins the plan's contract: a gather over
// a built plan equals the direct draw-as-you-go scan bit for bit —
// across ranks 1–3 (extent-1 axes included), the smallest and default
// lag cutoffs, pair budgets from one draw to the default, several
// seeds, and both element lanes.
func TestSampledPlanMatchesDirect(t *testing.T) {
	shapes := [][]int{{5000}, {1, 4100}, {70, 61}, {96, 96}, {30, 1, 40}, {26, 25, 27}}
	for si, shape := range shapes {
		f32, f64 := randomField32(shape, uint64(40+si))
		for _, maxLag := range []int{1, 0} {
			for _, pairs := range []int{1, 4096, 400_000} {
				seeds := []uint64{0, 7, 1 << 40}
				if pairs == 400_000 {
					seeds = seeds[:1]
				}
				for _, seed := range seeds {
					o := Options{MaxLag: maxLag, MaxPairs: pairs, Seed: seed}.withDefaults(shape)
					label := fmt.Sprintf("%v lag=%d pairs=%d seed=%d", shape, o.MaxLag, pairs, seed)
					p := mustPlan(t, shape, o)
					got, err := gatherPlan(bg, p, f64.Data)
					if err != nil {
						t.Fatal(err)
					}
					assertEmpiricalIdentical(t, got, sampledDirect(t, f64.Data, shape, o), label+" f64")
					got32, err := gatherPlan(bg, p, f32.Data)
					if err != nil {
						t.Fatal(err)
					}
					assertEmpiricalIdentical(t, got32, sampledDirect(t, f32.Data, shape, o), label+" f32")
				}
			}
		}
	}
}

// TestSampledScanDataPlanned drives the in-RAM entry point through the
// process-wide cache: the first (direct), second (build) and later
// (gather) requests of one key all equal the direct scan bitwise.
func TestSampledScanDataPlanned(t *testing.T) {
	ownPlans(t)
	shape := []int{81, 77}
	f32, f64 := randomField32(shape, 5)
	o := Options{Seed: 0xfeed}.withDefaults(shape)
	want := sampledDirect(t, f64.Data, shape, o)
	want32 := sampledDirect(t, f32.Data, shape, o)
	for call := 0; call < 4; call++ {
		got, err := sampledScanData(bg, f64.Data, shape, o)
		if err != nil {
			t.Fatal(err)
		}
		assertEmpiricalIdentical(t, got, want, fmt.Sprintf("f64 call %d", call))
		got32, err := sampledScanData(bg, f32.Data, shape, o)
		if err != nil {
			t.Fatal(err)
		}
		assertEmpiricalIdentical(t, got32, want32, fmt.Sprintf("f32 call %d", call))
	}
}

// TestPlanAdmissionAndEviction: a key's first request is only
// remembered, its second builds the plan, later ones reuse it; built
// plans and remembered keys are each evicted oldest first.
func TestPlanAdmissionAndEviction(t *testing.T) {
	c := &planCache{slots: 2}
	shape := []int{70, 61}
	opt := func(seed uint64) Options { return Options{Seed: seed, MaxPairs: 4096}.withDefaults(shape) }
	req := func(seed uint64) *pairPlan {
		t.Helper()
		p, err := c.plan(bg, shape, opt(seed))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := req(1); p != nil {
		t.Fatal("first request built a plan")
	}
	p := req(1)
	if p == nil {
		t.Fatal("second request built no plan")
	}
	if again := req(1); again != p {
		t.Fatal("third request did not reuse the plan")
	}

	// Two more built keys evict key 1's plan; its next request is a
	// first request again.
	for _, s := range []uint64{2, 3} {
		req(s)
		if req(s) == nil {
			t.Fatalf("key %d: second request built no plan", s)
		}
	}
	if len(c.built) != 2 {
		t.Fatalf("%d plans cached, want 2", len(c.built))
	}
	if req(1) != nil {
		t.Fatal("evicted key served a plan on its next request")
	}

	// Remembered keys are bounded too: after 1, 4 and 5 are each seen
	// once, key 1 is forgotten and its next request is a first again.
	req(4)
	req(5)
	if req(1) != nil {
		t.Fatal("forgotten key built a plan")
	}
	if len(c.seen) != 2 {
		t.Fatalf("%d keys remembered, want 2", len(c.seen))
	}
}

// TestPlanConcurrentGathers runs many goroutines through one cache and
// one key at once — remembering, building, storing and gathering race
// against each other — on both lanes; every result must equal the
// direct scan bitwise.
func TestPlanConcurrentGathers(t *testing.T) {
	c := &planCache{slots: planCacheSlots}
	shape := []int{64, 80}
	f32, f64 := randomField32(shape, 77)
	o := Options{Seed: 9, MaxPairs: 50_000}.withDefaults(shape)
	want := sampledDirect(t, f64.Data, shape, o)
	want32 := sampledDirect(t, f32.Data, shape, o)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 4; call++ {
				p, err := c.plan(bg, shape, o)
				if err != nil {
					t.Error(err)
					return
				}
				if p == nil {
					continue
				}
				got, err := gatherPlan(bg, p, f64.Data)
				if err != nil {
					t.Error(err)
					return
				}
				got32, err := gatherPlan(bg, p, f32.Data)
				if err != nil {
					t.Error(err)
					return
				}
				if !empiricalEqual(got, want) || !empiricalEqual(got32, want32) {
					t.Errorf("goroutine %d call %d: gather differs from the direct scan", g, call)
				}
			}
		}()
	}
	wg.Wait()
	if len(c.built) != 1 {
		t.Fatalf("%d plans cached for one key, want 1", len(c.built))
	}
}

func empiricalEqual(a, b *Empirical) bool {
	if len(a.H) != len(b.H) {
		return false
	}
	for i := range a.H {
		if a.H[i] != b.H[i] || a.N[i] != b.N[i] || math.Float64bits(a.Gamma[i]) != math.Float64bits(b.Gamma[i]) {
			return false
		}
	}
	return true
}

// TestPlanCancelledBuild: a build under a dead context returns its
// error and leaves the key entirely uncached — neither built nor
// remembered — and a gather under a dead context fails too.
func TestPlanCancelledBuild(t *testing.T) {
	c := &planCache{slots: planCacheSlots}
	shape := []int{70, 61}
	o := Options{Seed: 3}.withDefaults(shape)
	if p, err := c.plan(bg, shape, o); p != nil || err != nil {
		t.Fatalf("first request: plan %v, err %v", p, err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := c.plan(ctx, shape, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err %v, want context.Canceled", err)
	}
	if len(c.built) != 0 || len(c.seen) != 0 {
		t.Fatalf("cancelled build left %d plans and %d remembered keys", len(c.built), len(c.seen))
	}
	if _, err := gatherPlan(ctx, mustPlan(t, shape, o), randomField(shape, 1).Data); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather: err %v, want context.Canceled", err)
	}
}

// TestPlanUncacheableKeysDrawDirectly: keys whose plan would be too
// large or unpackable are never remembered or built, and the in-RAM
// entry point still equals the direct scan on them.
func TestPlanUncacheableKeysDrawDirectly(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		o     Options
	}{
		{"rank 4", []int{9, 8, 8, 9}, Options{MaxPairs: 4096}},
		{"pair budget", []int{70, 61}, Options{MaxPairs: maxPlanDraws + 1}},
		// MaxLag is clamped to the diagonal, so the field must be
		// long enough to keep a 600 cutoff.
		{"lag table", []int{70, 610}, Options{MaxLag: 600, MaxPairs: 4096}},
		{"32-bit code", []int{64, 64, 64}, Options{MaxPairs: 4096}},
	}
	for _, tc := range cases {
		o := tc.o.withDefaults(tc.shape)
		if _, _, ok := planKeyOf(tc.shape, o); ok {
			t.Fatalf("%s: key is plannable", tc.name)
		}
		c := &planCache{slots: planCacheSlots}
		for call := 0; call < 3; call++ {
			if p, err := c.plan(bg, tc.shape, o); p != nil || err != nil {
				t.Fatalf("%s call %d: plan %v, err %v", tc.name, call, p, err)
			}
		}
		if len(c.built) != 0 || len(c.seen) != 0 {
			t.Fatalf("%s: cache holds %d plans and %d keys", tc.name, len(c.built), len(c.seen))
		}
		f := randomField(tc.shape, 11)
		want := sampledDirect(t, f.Data, tc.shape, o)
		for call := 0; call < 3; call++ {
			got, err := sampledScanData(bg, f.Data, tc.shape, o)
			if err != nil {
				t.Fatal(err)
			}
			assertEmpiricalIdentical(t, got, want, tc.name)
		}
	}
}

// TestPlanShellBound checks the packing bound against an exhaustive
// count: no distance bin up to the cutoff holds more lattice lag
// vectors than shellBound allows.
func TestPlanShellBound(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		for maxLag := 1; maxLag <= 16; maxLag++ {
			count := make([]int, maxLag+1)
			v := make([]int, nd)
			var rec func(k int)
			rec = func(k int) {
				if k == nd {
					d2 := 0
					for _, x := range v {
						d2 += x * x
					}
					if b := int(math.Round(math.Sqrt(float64(d2)))); d2 > 0 && b <= maxLag {
						count[b]++
					}
					return
				}
				for x := -maxLag; x <= maxLag; x++ {
					v[k] = x
					rec(k + 1)
				}
			}
			rec(0)
			bound := shellBound(nd, maxLag)
			for b, n := range count {
				if n > bound {
					t.Fatalf("rank %d lag %d: bin %d holds %d lag vectors, bound %d", nd, maxLag, b, n, bound)
				}
			}
		}
	}
}

var sinkEmpirical *Empirical

// BenchmarkSampledScan times the in-RAM sampled scan at the default
// pair budget. cold draws a fresh seed every iteration, so every call
// is a first request and draws directly; warm repeats one key, so
// every call after the first two gathers over its cached plan.
func BenchmarkSampledScan(b *testing.B) {
	coldSeed := uint64(1) << 32 // never repeats across runs, so never planned
	for _, n := range []int{96, 256} {
		shape := []int{n, n}
		f := randomField(shape, 1)
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("%d/%s", n, mode), func(b *testing.B) {
				o := Options{Seed: 0x5ca1ab1e}.withDefaults(shape)
				for i := 0; i < 2; i++ { // admit the warm key
					if _, err := sampledScanData(bg, f.Data, shape, o); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						coldSeed++
						o.Seed = coldSeed
					}
					e, err := sampledScanData(bg, f.Data, shape, o)
					if err != nil {
						b.Fatal(err)
					}
					sinkEmpirical = e
				}
			})
		}
	}
}
