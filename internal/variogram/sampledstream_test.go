package variogram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// probeReaderAt wraps a ReaderAt, counting its reads and the reads of
// at most eight bytes (point reads). The failAt-th read fails with
// errProbe (0: never), and onRead runs before every read.
type probeReaderAt struct {
	r      io.ReaderAt
	mu     sync.Mutex
	reads  int
	small  int
	failAt int
	onRead func()
}

var errProbe = errors.New("probe: injected read failure")

func (p *probeReaderAt) ReadAt(b []byte, off int64) (int, error) {
	p.mu.Lock()
	p.reads++
	if len(b) <= 8 {
		p.small++
	}
	fail := p.reads == p.failAt
	onRead := p.onRead
	p.mu.Unlock()
	if onRead != nil {
		onRead()
	}
	if fail {
		return 0, errProbe
	}
	return p.r.ReadAt(b, off)
}

// reset zeroes the counters and sets the failure and hook for the next
// scan.
func (p *probeReaderAt) reset(failAt int, onRead func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads, p.small, p.failAt, p.onRead = 0, 0, failAt, onRead
}

// probedReader serializes a field and returns a reader over it whose
// reads (after the header) go through the returned probe.
func probedReader(t testing.TB, write func(w io.Writer) error) (*field.TileReader, *probeReaderAt) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	p := &probeReaderAt{r: bytes.NewReader(buf.Bytes())}
	tr, err := field.NewTileReader(p, int64(buf.Len()), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p.reset(0, nil)
	return tr, p
}

// slotBytesOf is the chunk scratch element size sampledScanReader uses
// for tr.
func slotBytesOf(tr *field.TileReader) int {
	if tr.Float32Lane() && tr.Len() <= maxSlot32 {
		return 4
	}
	return 8
}

// sampledMinBudget is the smallest budget the streamed sampler accepts
// for n elements at pairBytes a drawn pair: twice the cheapest span
// and its cursors plus one pair.
func sampledMinBudget(n, pairBytes int) int64 {
	cheapest := spanFixedBytes(n, 0)
	for sh := uint(1); 1<<(sh-1) < n; sh++ {
		cheapest = min(cheapest, spanFixedBytes(n, sh))
	}
	return 2 * (cheapest + int64(pairBytes))
}

// sampledGeometry is the span count, chunk size and chunk count of a
// streamed sampled scan of tr keeping kept pairs at budget.
func sampledGeometry(t *testing.T, tr *field.TileReader, budget int64, planned bool, o Options, kept int) (spans, size, chunks int) {
	t.Helper()
	n, sb := tr.Len(), slotBytesOf(tr)
	shift, err := spanShift(n, budget, 5*sb)
	if err != nil {
		t.Fatal(err)
	}
	size = chunkPairs(n, shift, budget, 5*sb, o.MaxPairs)
	if planned {
		size = chunkPairs(n, shift, budget, 2*sb, kept)
	}
	return (n-1)>>shift + 1, size, (kept + size - 1) / max(size, 1)
}

// keptPairs is the number of pairs a sampled scan folded.
func keptPairs(e *Empirical) int {
	k := int64(0)
	for _, c := range e.N {
		k += c
	}
	return int(k)
}

// ownPlans gives the calling test an empty process-wide plan cache and
// puts the previous one back when the test ends, so each key the test
// uses starts as a first request however many times the test runs
// (go test -count) and whichever tests ran before it.
func ownPlans(t *testing.T) {
	prev := sampledPlans
	sampledPlans = &planCache{slots: planCacheSlots}
	t.Cleanup(func() { sampledPlans = prev })
}

// planState reports whether the process-wide plan cache holds a built
// plan for k, and whether it remembers k as seen once.
func planState(k planKey) (built, seen bool) {
	sampledPlans.mu.Lock()
	defer sampledPlans.mu.Unlock()
	for _, e := range sampledPlans.built {
		built = built || e.key == k
	}
	return built, slices.Contains(sampledPlans.seen, k)
}

// TestSampledReaderMatchesInRAM pins the streamed sampler's contract:
// its drawn path (a key's first request) and its planned path (the
// second, which builds the plan, and later ones) are bitwise the
// in-RAM direct sampler — across ranks 1–3, extent-1 axes, both stored
// lanes (and the float32 lane through float64 slots), at budgets from
// the feasibility minimum through many spans and many chunks and one
// chunk to unbounded.
func TestSampledReaderMatchesInRAM(t *testing.T) {
	ownPlans(t)
	shapes := [][]int{{5000}, {1, 4100}, {70, 61}, {30, 1, 40}, {26, 25, 27}}
	const pairs = 6000
	seed := uint64(0x5a3d) << 40
	for si, shape := range shapes {
		f64 := randomField(shape, uint64(60+si))
		f32, wide := randomField32(shape, uint64(80+si))
		lanes := []struct {
			name string
			tr   *field.TileReader
			data []float64
		}{
			{"f64", writeTempField(t, f64.WriteBinary), f64.Data},
			{"f32", writeTempField(t, f32.WriteBinary), wide.Data},
		}
		for _, lane := range lanes {
			n, sb := lane.tr.Len(), slotBytesOf(lane.tr)
			whole := uint(0)
			for 1<<whole < n {
				whole++
			}
			minB := sampledMinBudget(n, 5*sb)
			budgets := []int64{minB, 8 * minB, 2 * (4*spanFixedBytes(n, whole) + int64(5*sb*pairs)), 0}
			for bi, budget := range budgets {
				seed++
				o := Options{Seed: seed, MaxPairs: pairs}.withDefaults(shape)
				label := fmt.Sprintf("%v %s budget %d", shape, lane.name, budget)
				want := sampledDirect(t, lane.data, shape, o)
				kept := keptPairs(want)
				spans, size, chunks := sampledGeometry(t, lane.tr, budget, false, o, kept)
				switch {
				case bi == 1 && (spans < 2 || chunks < 2):
					t.Fatalf("%s: %d spans, %d chunks; want several of each", label, spans, chunks)
				case bi >= 2 && (spans != 1 || size < kept):
					t.Fatalf("%s: %d spans of chunk %d for %d pairs; want one of each", label, spans, size, kept)
				}
				so := field.StreamOptions{BudgetBytes: budget}
				for call, path := range []string{"drawn", "built", "planned"} {
					got, err := sampledScanReader(bg, lane.tr, o, so)
					if err != nil {
						t.Fatalf("%s %s: %v", label, path, err)
					}
					assertEmpiricalIdentical(t, got, want, fmt.Sprintf("%s %s (call %d)", label, path, call))
				}
				if lane.name == "f32" && (budget == 0 || budget >= sampledMinBudget(n, 5*8)) {
					// the same lane through float64 slots
					got, err := sampledSpans[float64](bg, lane.tr, o, so, 8)
					if err != nil {
						t.Fatal(err)
					}
					assertEmpiricalIdentical(t, got, want, label+" float64 slots")
				}
			}
		}
	}
}

// TestSampledReaderBudgetTooSmall: one byte under the feasibility
// minimum is an error, raised before the key reaches the plan cache
// and before any read; the minimum itself scans.
func TestSampledReaderBudgetTooSmall(t *testing.T) {
	shape := []int{70, 61}
	f32, f64 := randomField32(shape, 7)
	for li, write := range []func(io.Writer) error{f64.WriteBinary, f32.WriteBinary} {
		tr, probe := probedReader(t, write)
		minB := sampledMinBudget(tr.Len(), 5*slotBytesOf(tr))
		o := Options{Seed: 0x7e57 + uint64(li), MaxPairs: 4096}.withDefaults(shape)
		_, err := sampledScanReader(bg, tr, o, field.StreamOptions{BudgetBytes: minB - 1})
		if err == nil {
			t.Fatalf("f32=%v budget %d: no error", tr.Float32Lane(), minB-1)
		}
		k, _, _ := planKeyOf(shape, o)
		if built, seen := planState(k); built || seen || probe.reads != 0 {
			t.Fatalf("rejected budget: plan built %v, key seen %v, %d reads", built, seen, probe.reads)
		}
		if _, err := sampledScanReader(bg, tr, o, field.StreamOptions{BudgetBytes: minB}); err != nil {
			t.Fatalf("f32=%v minimum budget %d: %v", tr.Float32Lane(), minB, err)
		}
	}
}

// TestSampledReaderGather: field.Gather takes each listed offset of a
// span from the same flat range of a whole-field ReadBlock, and of a
// ReadBlock over the axis-0 slab it covers, on both lanes — spans
// longer than one staging buffer and of odd lengths included, in
// float64 slots, in float32 slots on the float32 lane, and in place
// with the offsets in the slots themselves — and rejects ranges outside
// the field and float64 payloads in float32 slots.
func TestSampledReaderGather(t *testing.T) {
	shape := []int{7, 61, 53}
	f32, _ := randomField32(shape, 9)
	rng := xrand.New(11)
	for _, write := range []func(io.Writer) error{randomField(shape, 10).WriteBinary, f32.WriteBinary} {
		tr := writeTempField(t, write)
		n, plane := tr.Len(), shape[1]*shape[2]
		all := &field.Field{}
		if err := tr.ReadBlock(all, make([]int, 3), shape); err != nil {
			t.Fatal(err)
		}
		check := func(start, size int, want []float64) {
			offs := make([]uint16, rng.Intn(2*size+1))
			for x := range offs {
				offs[x] = uint16(rng.Intn(size))
			}
			stage := make([]float64, size)
			label := fmt.Sprintf("f32=%v Gather(%d, %d)", tr.Float32Lane(), start, size)
			got := make([]float64, len(offs))
			if err := field.Gather(tr, got, offs, start, stage); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			inPlace := make([]float64, len(offs))
			for x, o := range offs {
				inPlace[x] = float64(o)
			}
			if err := field.Gather(tr, inPlace, inPlace, start, stage); err != nil {
				t.Fatalf("%s in place: %v", label, err)
			}
			narrow := make([]float32, len(offs))
			err := field.Gather(tr, narrow, offs, start, stage)
			if tr.Float32Lane() != (err == nil) {
				t.Fatalf("%s into float32: err %v", label, err)
			}
			for x, o := range offs {
				w := want[o]
				if got[x] != w || inPlace[x] != w || tr.Float32Lane() && float64(narrow[x]) != w {
					t.Fatalf("%s[%d] = %v, in place %v, float32 %v; want element %d, %v", label, x, got[x], inPlace[x], narrow[x], o, w)
				}
			}
		}
		for range 200 {
			start := rng.Intn(n)
			size := rng.Intn(n - start + 1)
			check(start, size, all.Data[start:start+size])
		}
		check(0, n, all.Data)
		for _, z := range [][2]int{{0, 1}, {2, 5}, {6, 7}, {0, 7}} {
			slab := &field.Field{}
			if err := tr.ReadBlock(slab, []int{z[0], 0, 0}, []int{z[1], shape[1], shape[2]}); err != nil {
				t.Fatal(err)
			}
			check(z[0]*plane, (z[1]-z[0])*plane, slab.Data)
		}
		for _, bad := range [][2]int{{-1, 1}, {n + 1, 0}, {n - 3, 4}, {0, n + 1}} {
			if err := field.Gather(tr, []float64{0}, []uint16{0}, bad[0], make([]float64, bad[1])); err == nil {
				t.Fatalf("f32=%v Gather(%d, %d): no error", tr.Float32Lane(), bad[0], bad[1])
			}
		}
	}
}

// TestSampledReaderPeakWithinBudget: the streamed sampler's
// transform-pool peak stays inside the memory budget on both stored
// lanes, drawn and planned, at the feasibility minimum, a middle
// budget and half the payload, on a drained pool and on a warm one.
// Its span, cursors and chunk scratch are planned against half the
// budget and acquired tight, so even a warm pool's 2× slack fits.
func TestSampledReaderPeakWithinBudget(t *testing.T) {
	ctx := context.Background()
	shape := []int{40, 36, 30}
	f32, _ := randomField32(shape, 913)
	drain := func() { // two collections empty every sync.Pool
		runtime.GC()
		runtime.GC()
	}
	seed := uint64(0x9ea4) << 40
	for _, tr := range []*field.TileReader{writeTempField(t, randomField(shape, 912).WriteBinary), writeTempField(t, f32.WriteBinary)} {
		minB := sampledMinBudget(tr.Len(), 5*slotBytesOf(tr))
		payload := tr.PayloadBytes()
		for _, budget := range []int64{minB, 16 * minB, payload / 2} {
			so := field.StreamOptions{BudgetBytes: budget}
			seed++
			planned := Options{Seed: seed, MaxPairs: 10_000}
			for range 2 { // admit the planned key
				if _, err := Compute(ctx, onDisk(tr, so), planned); err != nil {
					t.Fatal(err)
				}
			}
			drain()
			for _, pass := range []string{"drained", "warm"} {
				for _, mode := range []string{"drawn", "planned"} {
					o := planned
					if mode == "drawn" {
						seed++
						o.Seed = seed
					}
					fft.ResetPeakBytes()
					base := fft.LiveBytes()
					if _, err := Compute(ctx, onDisk(tr, so), o); err != nil {
						t.Fatal(err)
					}
					peak := fft.PeakBytes() - base
					t.Logf("f32=%v budget %d %s %s: peak %d bytes", tr.Float32Lane(), budget, mode, pass, peak)
					if peak > budget {
						t.Fatalf("f32=%v budget %d %s %s: peak %d bytes > budget", tr.Float32Lane(), budget, mode, pass, peak)
					}
				}
			}
		}
	}
}

// TestSampledReaderReadCounts bounds the streamed sampler's reads: a
// chunk reads each span holding one of its endpoints once, so a scan
// makes at most spans × chunks reads and at most two per kept pair
// (every span read here fits one staging buffer). At the out-of-core
// benchmark's shape — a 48³ float32 volume under half its payload —
// it makes no point-sized reads.
func TestSampledReaderReadCounts(t *testing.T) {
	ownPlans(t)
	cases := []struct {
		shape    []int
		maxPairs int // 0: the default
		budget   func(tr *field.TileReader) int64
	}{
		{[]int{70, 61}, 10_000, func(tr *field.TileReader) int64 { return sampledMinBudget(tr.Len(), 5*slotBytesOf(tr)) }},
		{[]int{70, 61}, 10_000, func(tr *field.TileReader) int64 { return 8 * sampledMinBudget(tr.Len(), 5*slotBytesOf(tr)) }},
		{[]int{48, 48, 48}, 0, func(tr *field.TileReader) int64 { return tr.PayloadBytes() / 2 }},
	}
	seed := uint64(0xc0c0) << 40
	for ci, tc := range cases {
		f32, _ := randomField32(tc.shape, uint64(920+ci))
		for _, write := range []func(io.Writer) error{randomField(tc.shape, uint64(930+ci)).WriteBinary, f32.WriteBinary} {
			tr, probe := probedReader(t, write)
			budget := tc.budget(tr)
			so := field.StreamOptions{BudgetBytes: budget}
			seed++
			o := Options{Seed: seed, MaxPairs: tc.maxPairs}.withDefaults(tc.shape)
			for call, planned := range []bool{false, false, true} {
				probe.reset(0, nil)
				e, err := sampledScanReader(bg, tr, o, so)
				if err != nil {
					t.Fatal(err)
				}
				if call == 1 {
					continue // the build call: same reads as a planned one
				}
				kept := keptPairs(e)
				spans, _, chunks := sampledGeometry(t, tr, budget, planned, o, kept)
				bound := min(spans*chunks, 2*kept)
				label := fmt.Sprintf("%v f32=%v budget %d planned=%v", tc.shape, tr.Float32Lane(), budget, planned)
				t.Logf("%s: %d reads (%d spans × %d chunks, %d pairs)", label, probe.reads, spans, chunks, kept)
				if probe.reads > bound {
					t.Fatalf("%s: %d reads > bound %d", label, probe.reads, bound)
				}
				if ci == 2 && probe.small != 0 {
					t.Fatalf("%s: %d point-sized reads", label, probe.small)
				}
			}
		}
	}
}

// TestSampledReaderFailingReader: a reader failing partway surfaces its
// error at the first failing span read, with no read after it, on the
// drawn and the planned path.
func TestSampledReaderFailingReader(t *testing.T) {
	ownPlans(t)
	shape := []int{70, 61}
	tr, probe := probedReader(t, randomField(shape, 940).WriteBinary)
	so := field.StreamOptions{BudgetBytes: 8 * sampledMinBudget(tr.Len(), 5*slotBytesOf(tr))}
	o := Options{Seed: 0xfa11, MaxPairs: 20_000}.withDefaults(shape)
	for _, path := range []string{"drawn", "built", "planned"} {
		probe.reset(5, nil)
		_, err := sampledScanReader(bg, tr, o, so)
		if !errors.Is(err, errProbe) {
			t.Fatalf("%s: err %v, want the reader's error", path, err)
		}
		if probe.reads != 5 {
			t.Fatalf("%s: %d reads, want the scan to stop at the failing 5th", path, probe.reads)
		}
	}
}

// TestSampledReaderCancel: a context cancelled during a scan stops it
// within one chunk — no more reads than one chunk's spans after the
// cancelling read — on the drawn and the planned path; a plan build
// under a cancelled context leaves the key neither built nor
// remembered, and the next request scans as a first one.
func TestSampledReaderCancel(t *testing.T) {
	ownPlans(t)
	shape := []int{70, 61}
	f := randomField(shape, 950)
	tr, probe := probedReader(t, f.WriteBinary)
	budget := 8 * sampledMinBudget(tr.Len(), 5*slotBytesOf(tr))
	so := field.StreamOptions{BudgetBytes: budget}
	o := Options{Seed: 0xca9c, MaxPairs: 20_000}.withDefaults(shape)
	want := sampledDirect(t, f.Data, shape, o)
	spans, _, _ := sampledGeometry(t, tr, budget, false, o, keptPairs(want))
	for _, path := range []string{"drawn", "built", "planned"} {
		ctx, cancel := context.WithCancel(bg)
		probe.reset(0, cancel)
		_, err := sampledScanReader(ctx, tr, o, so)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", path, err)
		}
		if probe.reads > spans {
			t.Fatalf("%s: %d reads after cancelling; one chunk reads at most %d spans", path, probe.reads, spans)
		}
		if path == "drawn" { // admit the key: the next request builds
			probe.reset(0, nil)
			if _, err := sampledScanReader(bg, tr, o, so); err != nil {
				t.Fatal(err)
			}
		}
	}

	o.Seed++
	k, _, _ := planKeyOf(shape, o)
	probe.reset(0, nil)
	if _, err := sampledScanReader(bg, tr, o, so); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := sampledScanReader(ctx, tr, o, so); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err %v, want context.Canceled", err)
	}
	if built, seen := planState(k); built || seen {
		t.Fatalf("cancelled build: plan built %v, key remembered %v", built, seen)
	}
	got, err := sampledScanReader(bg, tr, o, so)
	if err != nil {
		t.Fatal(err)
	}
	assertEmpiricalIdentical(t, got, sampledDirect(t, f.Data, shape, o), "after a cancelled build")
	if built, seen := planState(k); built || !seen {
		t.Fatalf("after a cancelled build: plan built %v, key remembered %v; want a first request", built, seen)
	}
}

// keptLayout returns the number of built plans the process-wide cache
// holds for k (0 or 1) and the span layout kept beside it.
func keptLayout(k planKey) (plans int, l *spanLayout) {
	sampledPlans.mu.Lock()
	defer sampledPlans.mu.Unlock()
	for _, e := range sampledPlans.built {
		if e.key == k {
			plans++
			l = e.plan.layout.Load()
		}
	}
	return plans, l
}

// TestSampledReaderLayouts pins the span layout cached beside a plan:
// one planned key, read from both stored lanes at budgets whose spans
// do not divide the field (its short last span is read as the last full
// span) and whose chunks end inside bins, is bitwise the in-RAM scan on
// every request while the budgets alternate between two layouts, and
// the cached plan holds one layout — the last one built — not one per
// budget. Two goroutines scanning the key at different budgets at once
// stay bitwise too (run under -race by CI).
func TestSampledReaderLayouts(t *testing.T) {
	ownPlans(t)
	shape := []int{37, 41, 29}
	o := Options{Seed: 0x1a7e << 32, MaxPairs: 60_000}.withDefaults(shape)
	k, _, ok := planKeyOf(shape, o)
	if !ok {
		t.Fatal("key not plannable")
	}
	f32, wide := randomField32(shape, 77)
	want := sampledDirect(t, wide.Data, shape, o)
	kept := keptPairs(want)
	// Where each bin's pairs end in draw order: a chunk boundary strictly
	// between two of them falls inside a bin.
	ends := map[int]bool{}
	for b, total := 0, 0; b < len(want.N); b++ {
		total += int(want.N[b])
		ends[total] = true
	}
	for _, lane := range []struct {
		name string
		tr   *field.TileReader
	}{
		{"f64", writeTempField(t, wide.WriteBinary)},
		{"f32", writeTempField(t, f32.WriteBinary)},
	} {
		n, sb, payload := lane.tr.Len(), slotBytesOf(lane.tr), lane.tr.PayloadBytes()
		budgets := []int64{payload / 2, payload / 3}
		for _, budget := range budgets {
			shift, err := spanShift(n, budget, 5*sb)
			if err != nil {
				t.Fatal(err)
			}
			spans, size, chunks := sampledGeometry(t, lane.tr, budget, true, o, kept)
			midBin := false
			for c := 1; c < chunks; c++ {
				midBin = midBin || !ends[c*size]
			}
			t.Logf("%s budget %d: %d spans of %d, %d chunks of %d pairs", lane.name, budget, spans, 1<<shift, chunks, size)
			if n%(1<<shift) == 0 || spans < 3 || chunks < 3 || !midBin {
				t.Fatalf("%s budget %d: %d spans of %d for %d elements, %d chunks (one ending mid-bin: %v); want a short last span and several chunks, one ending mid-bin",
					lane.name, budget, spans, 1<<shift, n, chunks, midBin)
			}
		}
		for call := range 6 {
			budget := budgets[call%2]
			so := field.StreamOptions{BudgetBytes: budget}
			got, err := sampledScanReader(bg, lane.tr, o, so)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s call %d budget %d", lane.name, call, budget)
			assertEmpiricalIdentical(t, got, want, label)
			plans, l := keptLayout(k)
			if call == 0 && lane.name == "f64" {
				if plans != 0 {
					t.Fatalf("%s: the key's first request built a plan", label)
				}
				continue
			}
			shift, _ := spanShift(n, budget, 5*sb)
			_, size, _ := sampledGeometry(t, lane.tr, budget, true, o, kept)
			if plans != 1 || l == nil || l.shift != shift || l.size != size {
				t.Fatalf("%s: %d plans, layout %+v; want one plan keeping this budget's layout (shift %d, %d pairs a chunk)",
					label, plans, l, shift, size)
			}
		}
	}

	tr := writeTempField(t, f32.WriteBinary)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g, budget := range []int64{tr.PayloadBytes() / 2, tr.PayloadBytes() / 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			so := field.StreamOptions{BudgetBytes: budget}
			for range 8 {
				got, err := sampledScanReader(bg, tr, o, so)
				if err != nil {
					errs[g] = err
					return
				}
				if !slices.Equal(got.H, want.H) || !slices.Equal(got.Gamma, want.Gamma) || !slices.Equal(got.N, want.N) {
					errs[g] = fmt.Errorf("budget %d: result differs from the in-RAM scan", budget)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if plans, l := keptLayout(k); plans != 1 || l == nil {
		t.Fatalf("after concurrent scans: %d plans, layout %v; want one plan keeping one layout", plans, l)
	}
}
