package fleet

import (
	"runtime"
	"testing"

	"repro/internal/device"
)

// TestSlotRecycleRetention recycles one slot through a few hundred
// rollout trials and checks the live heap stays flat. Recycled storage
// (the driver's node slab, per-owner node chains, service entry lists)
// is rewound in place; a stale pointer left in a rewound slot would chain
// each trial's retired blocks — and the processes and VMs they point
// at — to the next, and the heap would grow with the trial count.
func TestSlotRecycleRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("recycles a slot through hundreds of defended trials; skipping under -short")
	}
	const (
		devices = 2048
		warm    = 60
		trials  = 300
	)
	w := AttackRollout(devices)
	slot, err := device.NewSlot(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	// Both samples are taken mid-loop, while the slot (and its current
	// device) is live, so the comparison prices what recycling retains.
	var base, final uint64
	infected := 0
	for i := 0; i < trials; i++ {
		// Stride across the fleet so the infection ramp mixes clean and
		// infected (attacker killed, death cascade) trials.
		index := i * 661 % devices
		seed := DeviceSeed(1, index)
		dev, err := slot.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Run(dev, index, seed)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if tr.Infected {
			infected++
		}
		switch i {
		case warm - 1:
			base = heapInuse()
		case trials - 1:
			final = heapInuse()
		}
	}
	const slack = 4 << 20
	t.Logf("HeapInuse after %d trials %.1f MiB, after %d trials %.1f MiB (%d infected)",
		warm, float64(base)/(1<<20), trials, float64(final)/(1<<20), infected)
	if infected < trials/4 {
		t.Fatalf("only %d of %d trials infected; the death-cascade path is barely exercised", infected, trials)
	}
	if final > base+slack {
		t.Fatalf("HeapInuse grew from %d to %d bytes over %d recycled trials (slack %d)",
			base, final, trials-warm, slack)
	}
}
