package services

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/kernel"
)

// TestDeathCascadeKeepsSurvivorOrder interleaves registrations from two
// processes on one method, kills one of them, then unregisters from the
// other until none is left. After each step the survivors keep
// registration order (so NotifyListeners delivers in that order and
// unregister releases the oldest), EntryCount and TotalEntries are exact,
// and no dropped entry is reachable through the list's backing array.
func TestDeathCascadeKeepsSurvivorOrder(t *testing.T) {
	const method = "addPrimaryClipChangedListener"
	r := newSvcRig(t, "clipboard", art.Config{})
	other := r.k.Spawn(kernel.SpawnConfig{Name: "com.other.app", Uid: 10062})
	ca := r.client(t, "com.evil.app")
	cb, err := NewClient(r.sm, r.d, other, "com.other.app", r.svc.Name())
	if err != nil {
		t.Fatal(err)
	}

	type reg struct {
		id int
		e  *entry
	}
	// survivors is what must be listed, in order; dropped is what must
	// not be reachable any more.
	var survivors, dropped, fromOther []reg
	var delivered []int
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 300; id++ {
		c := ca
		if rng.Intn(2) == 0 {
			c = cb
		}
		stub := r.d.NewLocalBinder(c.Proc(), "ClipChangedCallback", binder.TransactorFunc(func(*binder.Call) error {
			delivered = append(delivered, id)
			return nil
		}))
		if err := c.RegisterToken(method, stub); err != nil {
			t.Fatal(err)
		}
		es := listed(r.svc, method)
		rg := reg{id: id, e: es[len(es)-1]}
		survivors = append(survivors, rg)
		if c == cb {
			fromOther = append(fromOther, rg)
		}
	}
	if n := len(fromOther); n < 100 || len(survivors)-n < 100 {
		t.Fatalf("degenerate interleave: %d of %d from the other process", n, len(survivors))
	}

	check := func(step string) {
		t.Helper()
		if got := r.svc.EntryCount(method); got != len(survivors) {
			t.Fatalf("%s: EntryCount = %d, want %d", step, got, len(survivors))
		}
		if got := r.svc.TotalEntries(); got != len(survivors) {
			t.Fatalf("%s: TotalEntries = %d, want %d", step, got, len(survivors))
		}
		live := listed(r.svc, method)
		if len(live) != len(survivors) {
			t.Fatalf("%s: %d entries listed, want %d", step, len(live), len(survivors))
		}
		for i, rg := range survivors {
			if live[i] != rg.e {
				t.Fatalf("%s: slot %d holds a different registration than id %d", step, i, rg.id)
			}
		}
		es := r.svc.entries[method].es
		backing := es[:cap(es)]
		for _, rg := range dropped {
			if slices.Contains(backing, rg.e) {
				t.Fatalf("%s: dropped registration %d still reachable through the backing array", step, rg.id)
			}
		}
		delivered = delivered[:0]
		if n := r.svc.NotifyListeners(method, "clip changed"); n != len(survivors) {
			t.Fatalf("%s: delivered %d, want %d", step, n, len(survivors))
		}
		for i, rg := range survivors {
			if delivered[i] != rg.id {
				t.Fatalf("%s: delivery %d went to id %d, want %d", step, i, delivered[i], rg.id)
			}
		}
	}

	check("registered")
	if err := r.k.Kill(other.Pid(), "exit"); err != nil {
		t.Fatal(err)
	}
	survivors = slices.DeleteFunc(survivors, func(rg reg) bool { return rg.e.caller == other.Pid() })
	dropped = fromOther
	check("after death cascade")

	for len(survivors) > 0 {
		if err := ca.Unregister(method); err != nil {
			t.Fatal(err)
		}
		dropped = append(dropped, survivors[0])
		survivors = survivors[1:]
		check("after unregister")
	}
}

// listed returns a method's live registrations in order.
func listed(s *Service, method string) []*entry {
	var es []*entry
	s.entries[method].each(func(e *entry) bool {
		es = append(es, e)
		return true
	})
	return es
}
