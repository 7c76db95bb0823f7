package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCreateIDConcurrentSameID: CreateID calls racing on one id admit
// exactly one session; every other call answers ErrDuplicate, and the
// registry holds that one session under the id.
func TestCreateIDConcurrentSameID(t *testing.T) {
	const racers = 4
	sv := New(Config{MaxSessions: racers, DrainTimeout: time.Second})
	defer sv.Shutdown(context.Background())

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = sv.CreateID(7, fastSpec(7))
		}()
	}
	close(start)
	wg.Wait()
	created := 0
	for _, err := range errs {
		switch {
		case err == nil:
			created++
		case !errors.Is(err, ErrDuplicate):
			t.Fatalf("racing CreateID: %v, want success or ErrDuplicate", err)
		}
	}
	if created != 1 {
		t.Fatalf("%d racing CreateID calls succeeded, want exactly 1", created)
	}
	if ss := sv.Sessions(); len(ss) != 1 || ss[0].ID != 7 {
		t.Fatalf("registry after the race holds %d sessions, want one under id 7", len(ss))
	}
}

// TestCreateIDReplacesFailedSession: CreateID over an id whose session
// failed takes the id over, whether or not the old run has forgotten it
// yet, and clears the id's failure memory; the old run's forget then
// leaves the successor in place. A live session under the id is a
// duplicate.
func TestCreateIDReplacesFailedSession(t *testing.T) {
	sv := New(Config{MaxSessions: 2, DrainTimeout: time.Second})
	defer sv.Shutdown(context.Background())
	dead := fastSpec(5)
	dead.Erasure = 0.999 // every round aborts: the session fails
	dead.XPerRound = 4
	old, err := sv.CreateID(7, dead)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "session failure", func() bool { return old.State() == StateFailed })

	s, err := sv.CreateID(7, fastSpec(7))
	if err != nil {
		t.Fatalf("CreateID over a failed session: %v", err)
	}
	if failedRecently(sv, 7) {
		t.Fatal("the id still answers failed after CreateID placed it again")
	}
	<-old.done
	sv.forget(old) // what the old run loop does once run returns
	if got, err := sv.Lookup(7); err != nil || got != s {
		t.Fatalf("after the old run's forget, id 7 resolves to %p (%v), want the successor %p", got, err, s)
	}
	if failedRecently(sv, 7) {
		t.Fatal("the old run's forget marked the successor's id failed")
	}
	if _, err := sv.CreateID(7, fastSpec(7)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("CreateID over a live session: %v, want ErrDuplicate", err)
	}
}

// failedRecently reports whether the failure memory holds id.
func failedRecently(sv *Service, id uint64) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	_, ok := sv.failedIDs[id]
	return ok
}
