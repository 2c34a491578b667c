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
// level while the stages still skip the allocation on every call
// between collections.
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
