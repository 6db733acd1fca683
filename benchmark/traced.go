package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// layers collects one chunk's per-layer spans and counts during a traced
// run. Every span is taken here, around a call into a module's public
// function; the program itself carries no probes. A nil *layers runs
// the same calls untimed.
type layers struct {
	acquire, trial, fold           []time.Duration
	installs, calls                []time.Duration
	atkStep, benignStep            []time.Duration
	population, defNew, engage     []time.Duration
	schedRun, stepTime             time.Duration
	steps                          int64
	devices                        int64
	lmkKills, tx, logRecs, logDrop int64
	jgrAdds, jgrRemoves, peakJGR   int64
	detections, innocentKills      int64
}

// install is Apps().Install followed by App.Start, timed as one span.
func (lt *layers) install(dev *device.Device, pkg string) (*apps.App, error) {
	t0 := time.Now()
	app, err := dev.Apps().Install(pkg)
	if err == nil {
		app.Start()
	}
	if lt != nil {
		lt.installs = append(lt.installs, time.Since(t0))
	}
	return app, err
}

// run drives the scheduler and times Scheduler.Run as a whole; the
// wrapped actor steps inside it are subtracted later to give the event
// loop's self time.
func (lt *layers) run(sched *workload.Scheduler, stop func() bool) int {
	t0 := time.Now()
	steps := sched.Run(stop, trialBudget)
	if lt != nil {
		lt.schedRun += time.Since(t0)
		lt.steps += int64(steps)
	}
	return steps
}

// timedActor times every Step of the wrapped actor into *spans. With a
// defender attached it also records the step during which the
// defender's history grew: the correlate-and-kill cascade runs
// synchronously inside that step.
type timedActor struct {
	workload.Actor
	lt      *layers
	spans   *[]time.Duration
	def     *defense.Defender
	engaged bool
}

func (a *timedActor) Step() error {
	t0 := time.Now()
	err := a.Actor.Step()
	d := time.Since(t0)
	*a.spans = append(*a.spans, d)
	a.lt.stepTime += d
	if a.def != nil && !a.engaged && len(a.def.History()) > 0 {
		a.engaged = true
		a.lt.engage = append(a.lt.engage, d)
	}
	return err
}

// attacker wraps an attacker for the scheduler; def may be nil.
func (lt *layers) attacker(atk *workload.Attacker, def *defense.Defender) workload.Actor {
	if lt == nil {
		return atk
	}
	return &timedActor{Actor: atk, lt: lt, spans: &lt.atkStep, def: def}
}

// benign wraps a benign population member for the scheduler.
func (lt *layers) benign(b *workload.BenignApp) workload.Actor {
	if lt == nil {
		return b
	}
	return &timedActor{Actor: b, lt: lt, spans: &lt.benignStep}
}

// counters is a device's cumulative layer counters at one instant.
type counters struct {
	lmk, tx, logRecs, logDrop, adds, removes int64
}

func readCounters(dev *device.Device) counters {
	vm := dev.SystemServer().VM()
	ls := dev.Driver().LogStats()
	return counters{
		lmk:     int64(dev.Kernel().LMKKills()),
		tx:      int64(dev.Driver().TotalTransactions()),
		logRecs: int64(ls.Seq),
		logDrop: int64(ls.DroppedRate + ls.DroppedRing),
		adds:    int64(vm.TotalGlobalAdds()),
		removes: int64(vm.TotalGlobalRemoves()),
	}
}

// addTrial folds one trial's counter deltas and outcome. The JGR
// counters are read from the system_server runtime the trial started
// with: after an exhaustion the device runs a new one.
func (lt *layers) addTrial(dev *device.Device, before counters, vmAdds, vmRemoves, vmPeak int64, t fleet.Trial) {
	after := readCounters(dev)
	lt.devices++
	lt.lmkKills += after.lmk - before.lmk
	lt.tx += after.tx - before.tx
	lt.logRecs += after.logRecs - before.logRecs
	lt.logDrop += after.logDrop - before.logDrop
	lt.jgrAdds += vmAdds - before.adds
	lt.jgrRemoves += vmRemoves - before.removes
	if vmPeak > lt.peakJGR {
		lt.peakJGR = vmPeak
	}
	if t.Detected || t.FalseAlarm {
		lt.detections++
	}
	lt.innocentKills += int64(t.InnocentKills)
}

// merge appends o's spans and sums its counts into lt.
func (lt *layers) merge(o *layers) {
	lt.acquire = append(lt.acquire, o.acquire...)
	lt.trial = append(lt.trial, o.trial...)
	lt.fold = append(lt.fold, o.fold...)
	lt.installs = append(lt.installs, o.installs...)
	lt.calls = append(lt.calls, o.calls...)
	lt.atkStep = append(lt.atkStep, o.atkStep...)
	lt.benignStep = append(lt.benignStep, o.benignStep...)
	lt.population = append(lt.population, o.population...)
	lt.defNew = append(lt.defNew, o.defNew...)
	lt.engage = append(lt.engage, o.engage...)
	lt.schedRun += o.schedRun
	lt.stepTime += o.stepTime
	lt.steps += o.steps
	lt.devices += o.devices
	lt.lmkKills += o.lmkKills
	lt.tx += o.tx
	lt.logRecs += o.logRecs
	lt.logDrop += o.logDrop
	lt.jgrAdds += o.jgrAdds
	lt.jgrRemoves += o.jgrRemoves
	if o.peakJGR > lt.peakJGR {
		lt.peakJGR = o.peakJGR
	}
	lt.detections += o.detections
	lt.innocentKills += o.innocentKills
}

// tracedRun is one traced fleet run: the same chunking, slot recycling
// and fold as fleet.Run, rebuilt from device.Slot, parallel.Map and
// fleet.Accumulator so that Slot.Acquire and Accumulator.Add can be
// timed from outside. It returns every trial by device index and the
// merged layer spans.
type tracedRun struct {
	trials []fleet.Trial
	layers *layers
	wall   time.Duration
}

func runTraced(ctx context.Context, sp *spec, seed int64, workers int) (*tracedRun, error) {
	n := sp.devices
	chunk := fleet.DefaultChunkSize
	chunks := make([]int, (n+chunk-1)/chunk)
	for i := range chunks {
		chunks[i] = i
	}
	trials := make([]fleet.Trial, n)
	var mu sync.Mutex
	var free []*device.Slot
	start := time.Now()
	parts, err := parallel.Map(ctx, chunks, workers, func(ctx context.Context, _ int, c int) (*layers, error) {
		mu.Lock()
		var slot *device.Slot
		if k := len(free); k > 0 {
			slot, free = free[k-1], free[:k-1]
		}
		mu.Unlock()
		if slot == nil {
			var err error
			if slot, err = device.NewSlot(sp.device); err != nil {
				return nil, err
			}
		}
		defer func() {
			mu.Lock()
			free = append(free, slot)
			mu.Unlock()
		}()
		lt := &layers{}
		acc := fleet.NewAccumulator()
		for i := c * chunk; i < n && i < (c+1)*chunk; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ds := fleet.DeviceSeed(seed, i)
			t0 := time.Now()
			dev, err := slot.Acquire(ds)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("device %d: %w", i, err)
			}
			before := readCounters(dev)
			vm := dev.SystemServer().VM()
			t2 := time.Now()
			tr, err := sp.traced(dev, i, ds, lt)
			t3 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("device %d: %w", i, err)
			}
			lt.addTrial(dev, before, int64(vm.TotalGlobalAdds()), int64(vm.TotalGlobalRemoves()), int64(vm.PeakGlobalRefCount()), tr)
			t4 := time.Now()
			acc.Add(tr)
			lt.fold = append(lt.fold, time.Since(t4))
			lt.acquire = append(lt.acquire, t1.Sub(t0))
			lt.trial = append(lt.trial, t3.Sub(t2))
			trials[i] = tr
		}
		return lt, nil
	})
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	all := &layers{}
	for _, p := range parts {
		all.merge(p)
	}
	return &tracedRun{trials: trials, layers: all, wall: wall}, nil
}

// replay renders traced trials into the fleet rollup through fleet.Run
// itself, so the traced run's rollup is produced by the same fold and
// rendering as the timed run's.
func replay(ctx context.Context, sp *spec, seed int64, workers int, trials []fleet.Trial) (*fleet.Result, error) {
	cfg := fleet.Config{Devices: len(trials), Workers: workers, Seed: seed, Device: sp.device}
	return fleet.Run(ctx, cfg, fleet.Workload{Name: sp.timed.Name, Run: func(_ *device.Device, i int, _ int64) (fleet.Trial, error) {
		return trials[i], nil
	}})
}
