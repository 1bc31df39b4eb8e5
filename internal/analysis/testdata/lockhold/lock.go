// Package lockfixture exercises lockhold. Its fixture package path ends
// in internal/cache, so it is patrolled.
package lockfixture

import (
	"fmt"
	"os"
	"sync"

	"example.com/internal/core"
)

type store struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	entries map[string]float64
	ch      chan float64
	wg      sync.WaitGroup
}

func (s *store) bad(key string) float64 {
	s.mu.Lock()
	v := core.Solve(1.0)            // want "solver call core.Solve while holding s.mu"
	s.ch <- v                       // want "channel send while holding s.mu"
	r := <-s.ch                     // want "channel receive while holding s.mu"
	fmt.Fprintf(os.Stderr, "%g", r) // want "fmt.Fprintf writes to an io.Writer while holding s.mu"
	s.wg.Wait()                     // want "WaitGroup.Wait while holding s.mu"
	select {                        // want "select while holding s.mu"
	case x := <-s.ch:
		r += x
	default:
	}
	s.mu.Unlock()
	s.entries[key] = r
	return v
}

func (s *store) badDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- core.Solve(2) // want "channel send while holding s.mu" "solver call core.Solve while holding s.mu"
}

// good is the snapshot-then-work pattern the serving path must follow:
// O(map probe) under the lock, everything slow outside it.
func (s *store) good(key string) float64 {
	s.mu.Lock()
	v, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		v = core.Solve(1.0)
		s.ch <- v
		s.mu.Lock()
		s.entries[key] = v
		s.mu.Unlock()
	}
	fmt.Fprintf(os.Stderr, "%g", v)
	return v
}

// goodEarlyReturn mirrors Store.DoContext: branches that unlock and return do not
// poison the fall-through path, and the unconditional unlock ends the
// region before the channel ops.
func (s *store) goodEarlyReturn(key string) float64 {
	s.mu.Lock()
	if v, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := <-s.ch
	return v
}

// goodRead shows an RWMutex read section with pure map work, plus an
// annotated deliberate exception.
func (s *store) goodRead(key string) float64 {
	s.rw.RLock()
	defer s.rw.RUnlock()
	//pubopt:allow(lockhold): cold init path, runs once under startup lock
	v := core.Solve(3)
	return v + s.entries[key]
}
