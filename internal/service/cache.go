package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"sync"
)

// cacheKey is the content address of a pipeline result: SHA-256 over
// the request kind, the canonicalized option string, and the payload's
// own SHA-256 digest (NUL-separated so no two components can collide
// by concatenation). The digest is computed while the body spools, so
// content addressing never requires the raw bytes in memory. Identical
// field content submitted by upload or by dataset reference hashes
// identically; the worker count is excluded because every pipeline
// result is bit-identical at any worker count.
func cacheKey(kind, canon string, raw []byte) string {
	h := sha256.New()
	io.WriteString(h, kind)
	h.Write([]byte{0})
	io.WriteString(h, canon)
	h.Write([]byte{0})
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}

// resultCache is a small entry-count-bounded LRU. Values are final
// pipeline results and trained predictors — a few hundred bytes each —
// so bounding entries rather than bytes is enough.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

func (c *resultCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flightGroup is a minimal singleflight: concurrent do calls with the
// same key run fn once — the first caller leads, the rest wait for the
// leader's result or their own context's death, whichever comes first.
// A follower never inherits the leader's cancellation directly: when
// the leader is cancelled mid-compute, runCached retries the loop so a
// still-live follower becomes the new leader instead of failing.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// errFlightAborted is what followers observe if the leader's fn
// panicked out of the flight (the panic itself propagates on the
// leader's goroutine and is handled there).
var errFlightAborted = errors.New("service: flight aborted")

func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-f.done:
			return f.val, f.err, false
		case <-done:
			return nil, ctx.Err(), false
		}
	}
	f := &flight{done: make(chan struct{}), err: errFlightAborted}
	g.m[key] = f
	g.mu.Unlock()
	func() {
		defer func() {
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(f.done)
		}()
		f.val, f.err = fn()
	}()
	return f.val, f.err, true
}

// runCached serves a spec from the result cache, deduplicating
// concurrent identical requests through the flight group; the winning
// computation stores its result for every later byte-identical
// request. The cache write happens inside the flight, before the
// flight is torn down, but a caller can miss the cache just before
// that write and reach the flight group just after the teardown. So a
// new leader looks in the cache once more before running: with that
// second look the pipeline never runs twice for one content address
// except after eviction or a failure. The bool reports a cache hit,
// either look's (a flight join is a deduplication, not a hit — the
// pipeline still ran, just not for this caller).
func (s *Server) runCached(ctx context.Context, spec runSpec) (any, bool, error) {
	for {
		if v, ok := s.cache.get(spec.key); ok {
			s.ctrCacheHits.Add(1)
			return v, true, nil
		}
		if s.afterCacheMiss != nil {
			s.afterCacheMiss()
		}
		hit := false // written only by this caller's own flight function
		v, err, leader := s.flights.do(ctx, spec.key, func() (any, error) {
			if v, ok := s.cache.get(spec.key); ok {
				hit = true
				return v, nil
			}
			s.countRun(spec.kind)
			v, err := spec.run(ctx)
			if err == nil {
				s.cache.put(spec.key, v)
			}
			return v, err
		})
		if err == nil {
			if hit {
				s.ctrCacheHits.Add(1)
				return v, true, nil
			}
			if !leader {
				s.ctrFlightsJoined.Add(1)
			}
			return v, false, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		if !leader && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The leader died of its own cancellation but this caller
			// is still live: take over as leader on the next pass.
			continue
		}
		return nil, false, err
	}
}
