// Package cache provides the content-addressed result store behind the
// pubopt HTTP service: solved scenario outcomes keyed by the canonical JSON
// hash of their full specification.
//
// The store combines three mechanisms that together make a solver safe to
// put behind heavy traffic:
//
//   - an LRU bound on the number of cached results, so memory stays fixed
//     no matter how many distinct queries arrive;
//   - singleflight deduplication, so a thundering herd of identical
//     requests triggers exactly one solve while the rest wait for it;
//   - a bounded worker pool around the solve itself, so concurrent
//     *distinct* requests cannot oversubscribe the CPU (each solve already
//     parallelizes internally via sweep.RunRows).
//
// Results are treated as immutable once stored: the model is deterministic,
// so a key never goes stale and there is no TTL. Failed solves are not
// cached — errors propagate to every coalesced waiter and the next request
// retries.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// Key hashes the parts into a content address: each part is serialized to
// canonical JSON (struct fields in declaration order, maps sorted by key —
// the encoding/json guarantees) and the concatenation is SHA-256 hashed.
// Two requests share a key exactly when their specifications are
// byte-identical under canonical serialization.
func Key(parts ...any) (string, error) {
	h := sha256.New()
	for i, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("cache: serializing key part %d: %w", i, err)
		}
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Status classifies how DoContext satisfied a request.
type Status int

const (
	// Miss: this call executed the solve (and cached the result on success).
	Miss Status = iota
	// Hit: the result was already cached.
	Hit
	// Coalesced: an identical solve was already in flight; this call waited
	// for it instead of solving again.
	Coalesced
)

// String returns the lowercase label used in API responses and metrics.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits       uint64 // requests served from the cache
	Misses     uint64 // requests that executed a solve
	Coalesced  uint64 // requests that waited on an in-flight identical solve
	Evictions  uint64 // entries dropped by the LRU bound
	Entries    int    // current cached entries
	MaxEntries int    // the LRU bound (0 = caching disabled)
}

// flight is one in-progress solve; waiters block on done and then read
// val/err (written exactly once before done is closed).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type entry struct {
	key string
	val any
}

// Store is a bounded, singleflight-deduplicating result cache. The zero
// value is not usable; construct with New.
type Store struct {
	sem chan struct{} // bounds concurrent solves; nil = unbounded

	mu        sync.Mutex
	entries   map[string]*list.Element
	ll        *list.List // front = most recently used
	inflight  map[string]*flight
	max       int
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

// New returns a store holding at most maxEntries results (0 disables
// caching but keeps singleflight and the pool) and running at most workers
// solves concurrently (<= 0 means unbounded).
func New(maxEntries, workers int) *Store {
	s := &Store{
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
		inflight: make(map[string]*flight),
		max:      maxEntries,
	}
	if workers > 0 {
		s.sem = make(chan struct{}, workers)
	}
	return s
}

// ReserveContext blocks until a worker-pool slot is free and returns its
// release func (a no-op when the pool is unbounded). It lets callers that
// execute solves outside DoContext — a service stream's solve phase, which
// runs its own cell-parallel solve — count against the same concurrency
// bound as pooled solves. When ctx ends before a slot frees up, it returns
// ctx.Err() and no slot is held.
func (s *Store) ReserveContext(ctx context.Context) (release func(), err error) {
	if s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// DoContext returns the cached value for key, or executes solve to produce
// it. Concurrent calls with the same key run solve exactly once: the first
// caller solves (inside the worker pool), the rest block until it finishes
// and share its value or error. A panic inside solve is recovered into an
// error so one poisonous request cannot take the server down.
//
// Waiting is cancellable. A coalesced caller whose ctx ends before the
// in-flight solve completes returns ctx.Err() immediately — the solve
// itself keeps running for the remaining waiters and still populates the
// cache. A solving caller whose ctx ends while it waits for a worker-pool
// slot gives up before solving; its error propagates to every waiter
// coalesced onto it (failed solves are never cached, so the next request
// retries).
func (s *Store) DoContext(ctx context.Context, key string, solve func() (any, error)) (any, Status, error) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		val := el.Value.(*entry).val
		s.mu.Unlock()
		return val, Hit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.misses++
	s.mu.Unlock()

	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			f.err = ctx.Err()
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
			close(f.done)
			return nil, Miss, f.err
		}
	}
	f.val, f.err = runSafe(solve)
	if s.sem != nil {
		<-s.sem
	}

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.add(key, f.val)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, Miss, f.err
}

// Lookup returns the cached value for key, counting the probe as a hit or
// miss in Stats. It never solves and never coalesces — callers that plan to
// produce missing values themselves (the batch endpoint's grid cells and
// refinement's points, which are solved on the caller's own workers
// rather than one singleflight each) probe with Lookup and insert with Put.
func (s *Store) Lookup(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key without solving, subject to the same LRU bound
// as solved results (a no-op when caching is disabled). Put does not
// deduplicate against in-flight solves of the same key: the model is
// deterministic, so a racing solve writes the same bytes.
func (s *Store) Put(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(key, val)
}

// add inserts under s.mu, evicting from the LRU tail past the bound.
func (s *Store) add(key string, val any) {
	if s.max <= 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.entries[key] = s.ll.PushFront(&entry{key: key, val: val})
	for s.ll.Len() > s.max {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
		s.evictions++
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:       s.hits,
		Misses:     s.misses,
		Coalesced:  s.coalesced,
		Evictions:  s.evictions,
		Entries:    s.ll.Len(),
		MaxEntries: s.max,
	}
}

func runSafe(solve func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cache: solve panicked: %v", r)
		}
	}()
	return solve()
}
