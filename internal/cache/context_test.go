package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestDoContextCoalescedCancel: a coalesced waiter whose context dies
// returns immediately with ctx.Err while the in-flight solve completes and
// still populates the cache for later callers.
func TestDoContextCoalescedCancel(t *testing.T) {
	s := New(8, 0)
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.DoContext(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, err := s.DoContext(ctx, "k", func() (any, error) {
		t.Error("coalesced caller must not solve")
		return nil, nil
	})
	if status != Coalesced || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got status %v err %v", status, err)
	}

	close(release)
	wg.Wait()
	v, status, err := s.DoContext(context.Background(), "k", nil)
	if err != nil || status != Hit || v != 42 {
		t.Fatalf("original solve did not populate cache: %v %v %v", v, status, err)
	}
}

// TestDoContextPoolWaitCancel: a would-be solver that cannot get a pool
// slot before its context dies gives up without solving.
func TestDoContextPoolWaitCancel(t *testing.T) {
	s := New(8, 1) // one-slot pool
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.DoContext(context.Background(), "occupant", func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, err := s.DoContext(ctx, "blocked", func() (any, error) {
		t.Error("solve ran despite canceled pool wait")
		return nil, nil
	})
	if status != Miss || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pool wait got status %v err %v", status, err)
	}
	close(release)
	wg.Wait()

	// The failed flight must not be cached and must not wedge the key.
	v, status, err := s.DoContext(context.Background(), "blocked", func() (any, error) { return 7, nil })
	if err != nil || status != Miss || v != 7 {
		t.Fatalf("key wedged after canceled flight: %v %v %v", v, status, err)
	}
}

// TestReserveContext covers the cancellable pool reservation.
func TestReserveContext(t *testing.T) {
	unbounded := New(0, 0)
	rel, err := unbounded.ReserveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()

	s := New(0, 1)
	rel, err = s.ReserveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ReserveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("full pool with dead context returned %v", err)
	}
	rel()
	rel, err = s.ReserveContext(context.Background())
	if err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	rel()
}
