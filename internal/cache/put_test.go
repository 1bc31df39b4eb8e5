package cache

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestPutAndLookup(t *testing.T) {
	s := New(2, 0)
	if _, ok := s.Lookup("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("a", 1)
	v, ok := s.Lookup("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Lookup(a) = %v, %v after Put", v, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after one miss and one hit: %+v", st)
	}

	// Put obeys the LRU bound like solved results do.
	s.Put("b", 2)
	s.Put("c", 3) // evicts "a" (b was inserted after a's probe-touch)
	st = s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	if _, ok := s.Lookup("c"); !ok {
		t.Fatal("most recent Put evicted")
	}
}

func TestPutDisabledCache(t *testing.T) {
	s := New(0, 0) // caching disabled
	s.Put("a", 1)
	if _, ok := s.Lookup("a"); ok {
		t.Fatal("disabled cache stored a Put")
	}
}

func TestLookupDoesNotCoalesce(t *testing.T) {
	// A Lookup during an in-flight Do of the same key must return a miss
	// immediately instead of blocking on the flight.
	s := New(4, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.DoContext(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("Lookup hit a key that is still solving")
	}
	close(release)
	<-done
	if v, ok := s.Lookup("k"); !ok || v.(int) != 42 {
		t.Fatalf("Lookup after solve = %v, %v", v, ok)
	}
}

func TestPutOverwriteKeepsSingleEntry(t *testing.T) {
	s := New(4, 0)
	for i := 0; i < 3; i++ {
		s.Put("k", i)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("repeated Put of one key left %d entries", st.Entries)
	}
	if v, _ := s.Lookup("k"); v.(int) != 2 {
		t.Fatalf("Put did not overwrite: %v", v)
	}
}

func TestKeyDistinguishesCellSpecs(t *testing.T) {
	type spec struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	a, err := Key("batch/cell/v1", spec{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key("batch/cell/v1", spec{X: 1, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Key("batch/cell/v1", spec{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct cells share a key")
	}
	if a != c {
		t.Fatal("identical cells disagree on the key")
	}
	if fmt.Sprintf("%x", a) == "" {
		t.Fatal("empty key")
	}
}

func TestReserveBoundsConcurrency(t *testing.T) {
	ctx := context.Background()
	s := New(0, 1)
	release, err := s.ReserveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		r, err := s.ReserveContext(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		close(acquired)
		r()
	}()
	select {
	case <-acquired:
		t.Fatal("second reservation succeeded while the only slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("released slot was never re-acquired")
	}

	// Unbounded stores hand out no-op slots without blocking.
	u := New(0, 0)
	r1, err1 := u.ReserveContext(ctx)
	r2, err2 := u.ReserveContext(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	r1()
	r2()
}
