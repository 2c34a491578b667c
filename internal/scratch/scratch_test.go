package scratch

import (
	"runtime"
	"testing"
)

type buf struct{ b [1 << 16]byte }

// TestScratchReusesUntilCollection pins both halves of the contract: a
// value put back comes out of Get again, and once a collection has
// run with no caller holding it, it is gone and Get makes a new one.
func TestScratchReusesUntilCollection(t *testing.T) {
	made := 0
	p := Pool[buf]{New: func() *buf { made++; return new(buf) }}
	v := p.Get()
	reused := false
	// sync.Pool may drop a value put back (at random under the race
	// detector, or when Get runs on another P), so retry.
	for range 100 {
		p.Put(v)
		if w := p.Get(); w == v {
			reused = true
			break
		} else if w != nil {
			v = w
		}
	}
	if !reused {
		t.Fatal("a value put back never came out of Get")
	}
	p.Put(v)
	v = nil
	runtime.GC()
	before := made
	if p.Get(); made != before+1 {
		t.Fatalf("after a collection Get made %d new values, want 1: an idle value outlived it", made-before)
	}
}

// TestScratchConcurrent hands values between goroutines under the race
// detector: no value is ever out to two callers at once.
func TestScratchConcurrent(t *testing.T) {
	p := Pool[[2]int]{New: func() *[2]int { return new([2]int) }}
	done := make(chan struct{})
	for g := range 8 {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range 1000 {
				v := p.Get()
				v[0], v[1] = g, i
				runtime.Gosched()
				if v[0] != g || v[1] != i {
					t.Errorf("goroutine %d: value shared with another caller", g)
					return
				}
				p.Put(v)
			}
		}()
	}
	for range 8 {
		<-done
	}
}
