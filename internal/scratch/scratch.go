// Package scratch recycles per-call working memory without keeping it
// alive: Pool is a sync.Pool that holds its values weakly, so the
// garbage collector frees every value no call is using at its next
// cycle, and values are reused only between collections.
//
// A sync.Pool keeps what it holds reachable for up to two collections,
// so pooled scratch counts in the live heap, and the collector's next
// heap goal is twice the live heap at the default GOGC. The codecs'
// lossless and entropy stages pool a ~1.4 MB level-9 flate writer (one
// per P that has run a codec) and up to ~0.7 MB of Huffman tables.
// Held strongly, they raised the measure-sweep benchmark's peak RSS by
// about a quarter on a 2-vCPU host; held weakly, it stayed at its old
// level.
//
// Weak holding has a cost in bytes. A value is reused only until the
// next collection, and, because sync.Pool keeps a value put back in
// the putting P's private slot, only by calls on that P. Every other
// call builds a new one, and a new level-9 writer is itself enough
// garbage to bring the next collection closer. BenchmarkMeasureField
// (internal/core; one 96×96 field, 3 codecs × 4 bounds) shows it: a
// serial measurement allocates 1.16 MB per op at -cpu 1 and 5.82 MB
// at -cpu 2, 38% of that in flate.NewWriter (about 1.5 writers built
// per op); with the measurement's cells on two Ps, 14.06 MB, 58% of it
// flate.NewWriter. A process with a larger live heap collects less
// often and pays less: the measure-sweep benchmark allocates
// 1.3–1.4 MB per op with the cells on two Ps.
package scratch

import (
	"sync"
	"weak"
)

// Pool recycles values of T between calls. New must be set before use.
type Pool[T any] struct {
	// New makes a value when the pool has no live one.
	New func() *T
	p   sync.Pool // of weak.Pointer[T]
}

// Get returns a value put back since the last collection, or a new
// one. Its contents are what the last user left.
func (p *Pool[T]) Get() *T {
	for {
		wp, ok := p.p.Get().(weak.Pointer[T])
		if !ok {
			return p.New()
		}
		if v := wp.Value(); v != nil {
			return v
		}
	}
}

// Put hands v back for reuse; the caller must not use v after.
func (p *Pool[T]) Put(v *T) { p.p.Put(weak.Make(v)) }
