package binder

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/simclock"
)

// scanProcessDeath is the oracle for Driver.onProcessDeath: the same
// reclamation, but finding the dead process's nodes by scanning every node
// the driver has minted, in handle order. The range bound is fixed when
// the loop starts, so nodes minted by recipients mid-cascade are not
// visited.
func scanProcessDeath(d *Driver, p *kernel.Process) {
	pid := p.Pid()
	if ctx, ok := d.ctxs[pid]; ok {
		delete(d.ctxs, pid)
		for _, br := range ctx.proxies {
			if !br.closed {
				br.closed = true
				d.dropRemoteRef(br.node())
			}
		}
		for _, dl := range ctx.links {
			if dl.active {
				dl.active = false
				dl.node.removeLink(dl)
			}
		}
	}
	for _, n := range d.nodes {
		if n.dead || n.owner.Pid() != pid {
			continue
		}
		n.dead = true
		n.ownerJGR = 0
		links := append([]*DeathLink(nil), n.links...)
		n.links = nil
		for _, dl := range links {
			if dl.holder.proc.Alive() {
				dl.fire()
			}
		}
		n.local.node = nil
	}
}

// newScanDriver builds a driver whose process-death handler is the
// scanning oracle. New registers the production handler on the kernel it
// is given, so the driver is built against a throwaway kernel and then
// attached to k with the oracle as its only death observer.
func newScanDriver(k *kernel.Kernel) *Driver {
	d := New(kernel.New(simclock.New(), kernel.Config{}), Config{})
	d.k, d.clock = k, k.Clock()
	k.OnKill(func(p *kernel.Process, _ string) { scanProcessDeath(d, p) })
	return d
}

// deathScript runs one seeded round of binder traffic and process deaths
// on d and returns its transcript: every proxy materialization (with the
// node handle it resolved to), every death recipient fired, in order, and
// the final state of every node. Recipients cascade further kills, re-mint
// nodes for the dying owner's binders (the n.local.node = nil path) and
// mint fresh nodes for live owners while the death walk is in progress.
func deathScript(k *kernel.Kernel, d *Driver, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	procs := make([]*kernel.Process, 10)
	binders := make([][]*LocalBinder, len(procs))
	for i := range procs {
		procs[i] = k.Spawn(kernel.SpawnConfig{
			Name: fmt.Sprintf("p%d", i), Uid: kernel.FirstAppUid + kernel.Uid(i), MemoryKB: 1,
		})
		for j := 2 + rng.Intn(4); j > 0; j-- {
			binders[i] = append(binders[i], d.NewLocalBinder(procs[i], "", nil))
		}
	}
	materialize := func(h *kernel.Process, b *LocalBinder) *BinderRef {
		ref, err := d.Materialize(h, b)
		if err != nil {
			note("materialize %s: %v", h.Name(), err)
			return nil
		}
		if px, ok := ref.Binder().(*proxy); ok {
			note("materialize %s -> node %d", h.Name(), px.node.handle)
		}
		return ref
	}

	for id := 0; id < 80; id++ {
		hi, oi := rng.Intn(len(procs)), rng.Intn(len(procs))
		bi, action, ai, ri := rng.Intn(len(binders[oi])), rng.Intn(4), rng.Intn(len(procs)), rng.Intn(len(binders[oi]))
		if hi == oi {
			continue
		}
		h := procs[hi]
		ref := materialize(h, binders[oi][bi])
		if ref == nil {
			continue
		}
		_, err := ref.Binder().LinkToDeath(func() {
			note("fire %d", id)
			switch action {
			case 1:
				k.Kill(procs[ai].Pid(), "cascade")
			case 2:
				materialize(h, binders[oi][ri])
			case 3:
				if p := procs[ai]; p.Alive() && p != h {
					materialize(h, d.NewLocalBinder(p, "", nil))
				}
			}
		})
		if err != nil {
			note("link %d: %v", id, err)
		}
	}
	for _, i := range rng.Perm(len(procs))[:7] {
		note("kill p%d: %v", i, k.Kill(procs[i].Pid(), "test"))
	}
	// Flattening a dead owner's binder after its death mints a fresh node.
	for i, p := range procs {
		if !p.Alive() {
			continue
		}
		for j := range procs {
			if !procs[j].Alive() {
				materialize(p, binders[j][0])
			}
		}
		note("survivor p%d", i)
	}
	for _, n := range d.nodes {
		note("node %d owner %d dead %v links %d", n.handle, n.owner.Pid(), n.dead, len(n.links))
	}
	return log
}

// TestDeathWalkMatchesScan pins the per-owner death walk to the full-slice
// scan: across driver recycles through NewReusing, both fire the same
// death recipients in the same order and leave every node in the same
// state.
func TestDeathWalkMatchesScan(t *testing.T) {
	var prev *Driver
	var fires, reminted int
	for round := int64(1); round <= 12; round++ {
		k := kernel.New(simclock.New(), kernel.Config{})
		d := NewReusing(prev, k, Config{})
		got := deathScript(k, d, round)
		prev = d

		ok := kernel.New(simclock.New(), kernel.Config{})
		want := deathScript(ok, newScanDriver(ok), round)
		if len(got) != len(want) {
			t.Fatalf("round %d: transcript has %d lines, oracle %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d line %d: got %q, oracle %q", round, i, got[i], want[i])
			}
		}
		for _, line := range got {
			if strings.HasPrefix(line, "fire ") {
				fires++
			}
		}
		for _, n := range d.nodes {
			if !n.dead && !n.owner.Alive() {
				reminted++
			}
		}
	}
	// The script must actually exercise cascades and re-minting.
	if fires < 100 || reminted == 0 {
		t.Fatalf("weak coverage: %d recipients fired, %d nodes re-minted for dead owners", fires, reminted)
	}
}
