package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyDeterministicAndDistinct(t *testing.T) {
	type spec struct {
		Name string  `json:"name"`
		Nu   float64 `json:"nu"`
	}
	a1, err := Key("scenario", spec{Name: "x", Nu: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Key("scenario", spec{Name: "x", Nu: 0.4})
	if a1 != a2 {
		t.Fatalf("identical specs hash differently: %s vs %s", a1, a2)
	}
	b, _ := Key("scenario", spec{Name: "x", Nu: 0.5})
	if a1 == b {
		t.Fatal("distinct specs collide")
	}
	// Length-prefixing: part boundaries must matter.
	c1, _ := Key("ab", "c")
	c2, _ := Key("a", "bc")
	if c1 == c2 {
		t.Fatal(`Key("ab","c") == Key("a","bc")`)
	}
}

func TestDoHitMiss(t *testing.T) {
	s := New(8, 0)
	calls := 0
	solve := func() (any, error) { calls++; return 42, nil }

	v, st, err := s.DoContext(context.Background(), "k", solve)
	if err != nil || v != 42 || st != Miss {
		t.Fatalf("first Do = (%v, %v, %v), want (42, miss, nil)", v, st, err)
	}
	v, st, err = s.DoContext(context.Background(), "k", solve)
	if err != nil || v != 42 || st != Hit {
		t.Fatalf("second Do = (%v, %v, %v), want (42, hit, nil)", v, st, err)
	}
	if calls != 1 {
		t.Fatalf("solve ran %d times, want 1", calls)
	}
	if got := s.Stats(); got.Hits != 1 || got.Misses != 1 || got.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", got)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New(8, 0)
	boom := errors.New("boom")
	calls := 0
	_, _, err := s.DoContext(context.Background(), "k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	_, st, err := s.DoContext(context.Background(), "k", func() (any, error) { calls++; return 7, nil })
	if err != nil || st != Miss {
		t.Fatalf("retry after error = (%v, %v), want (miss, nil)", st, err)
	}
	if calls != 2 {
		t.Fatalf("solve ran %d times, want 2 (errors must not be cached)", calls)
	}
}

func TestPanicRecoveredToError(t *testing.T) {
	s := New(8, 0)
	_, _, err := s.DoContext(context.Background(), "k", func() (any, error) { panic("poison") })
	if err == nil {
		t.Fatal("panicking solve returned nil error")
	}
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("panicked solve was cached")
	}
}

func TestLRUEvictionBoundsEntries(t *testing.T) {
	const max = 4
	s := New(max, 0)
	for i := 0; i < 3*max; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := s.DoContext(context.Background(), key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != max {
		t.Fatalf("entries = %d, want LRU bound %d", st.Entries, max)
	}
	if st.Evictions != 2*max {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 2*max)
	}
	// The oldest keys are gone, the newest survive.
	if _, ok := s.Lookup("k0"); ok {
		t.Fatal("oldest key survived eviction")
	}
	if _, ok := s.Lookup(fmt.Sprintf("k%d", 3*max-1)); !ok {
		t.Fatal("newest key was evicted")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	s := New(2, 0)
	s.DoContext(context.Background(), "a", func() (any, error) { return 1, nil })
	s.DoContext(context.Background(), "b", func() (any, error) { return 2, nil })
	s.DoContext(context.Background(), "a", func() (any, error) { t.Fatal("unexpected solve"); return nil, nil }) // touch a
	s.DoContext(context.Background(), "c", func() (any, error) { return 3, nil })                                // evicts b, not a
	if _, ok := s.Lookup("a"); !ok {
		t.Fatal("recently used key evicted")
	}
	if _, ok := s.Lookup("b"); ok {
		t.Fatal("least recently used key survived")
	}
}

func TestSingleflightCoalescesIdenticalKeys(t *testing.T) {
	const waiters = 16
	s := New(8, 0)
	var calls atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{})

	solve := func() (any, error) {
		calls.Add(1)
		close(entered)
		<-release
		return "result", nil
	}

	var wg sync.WaitGroup
	statuses := make([]Status, waiters)
	values := make([]any, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			values[i], statuses[i], errs[i] = s.DoContext(context.Background(), "k", solve)
		}()
	}
	<-entered // the first solve is running; everyone else must coalesce
	// Give the remaining goroutines a chance to reach Do. They either see
	// the inflight entry (coalesced) or, if scheduled after release, a hit;
	// in no interleaving may solve run twice.
	release <- struct{}{}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("solve ran %d times for one key under %d concurrent requests, want exactly 1", n, waiters)
	}
	var misses int
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if values[i] != "result" {
			t.Fatalf("waiter %d got %v", i, values[i])
		}
		if statuses[i] == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d waiters reported miss, want exactly 1 (the solver)", misses)
	}
}

func TestSingleflightPropagatesErrorToWaiters(t *testing.T) {
	s := New(8, 0)
	boom := errors.New("boom")
	release := make(chan struct{})
	entered := make(chan struct{})
	go s.DoContext(context.Background(), "k", func() (any, error) { close(entered); <-release; return nil, boom })
	<-entered
	done := make(chan error)
	go func() {
		_, _, err := s.DoContext(context.Background(), "k", func() (any, error) { t.Error("waiter must not solve"); return nil, nil })
		done <- err
	}()
	// Let the waiter coalesce, then release the solver.
	for s.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("coalesced waiter got %v, want the solver's error", err)
	}
}

func TestWorkerPoolBoundsConcurrentSolves(t *testing.T) {
	const workers = 2
	const jobs = 10
	s := New(jobs, workers)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.DoContext(context.Background(), fmt.Sprintf("k%d", i), func() (any, error) {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				// Hold the slot long enough for contention to be observable.
				for j := 0; j < 1000; j++ {
					_ = j
				}
				inFlight.Add(-1)
				return i, nil
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent solves, pool bound is %d", p, workers)
	}
	if st := s.Stats(); st.Misses != jobs {
		t.Fatalf("misses = %d, want %d distinct solves", st.Misses, jobs)
	}
}

func TestZeroMaxDisablesCachingButKeepsSingleflight(t *testing.T) {
	s := New(0, 0)
	calls := 0
	s.DoContext(context.Background(), "k", func() (any, error) { calls++; return 1, nil })
	_, st, _ := s.DoContext(context.Background(), "k", func() (any, error) { calls++; return 1, nil })
	if st != Miss || calls != 2 {
		t.Fatalf("max=0 store cached (status %v, %d calls)", st, calls)
	}
	if got := s.Stats(); got.Entries != 0 {
		t.Fatalf("max=0 store holds %d entries", got.Entries)
	}
}
