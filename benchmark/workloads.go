package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// spec is one benchmark workload: the fleet width of a single run, the
// device shape, the workload fleet.Run times, and the traced mirror that
// rebuilds the same trials from public constructors with timing shims
// around every layer call.
type spec struct {
	name    string
	devices int
	device  device.Config
	// timed is the workload fleet.Run executes with tracing off.
	timed fleet.Workload
	// traced runs one trial of the same workload with layer timing; its
	// Trial must equal timed.Run's for the same device and seed.
	traced func(dev *device.Device, index int, seed int64, lt *layers) (fleet.Trial, error)
}

// defaultWidths is each workload's fleet width: the devices of one run
// of the closed loop, which repeats fleet.Run over the same devices until
// the run length is spent. Exhaust needs more than 64 × workers devices
// to keep every worker busy (see NOTES.md).
var defaultWidths = map[string]int{"probe": 16384, "rollout": 2048, "exhaust": 256}

const (
	// exhaustCap is the victim's JGR capacity in the exhaust workload:
	// the registry's quick Fig. 3 cap.
	exhaustCap = 6000
	// trialBudget mirrors the fleet workloads' per-trial step bound.
	trialBudget = 400_000
)

func workloadNames() []string { return []string{"probe", "rollout", "exhaust"} }

// newSpec builds the named workload over a fleet of the given width;
// 0 means its default width.
func newSpec(name string, devices int) (*spec, error) {
	if devices == 0 {
		devices = defaultWidths[name]
	}
	switch name {
	case "probe":
		return &spec{name: name, devices: devices, timed: fleet.BaselineProbe(), traced: tracedProbe}, nil
	case "rollout":
		target := fastestTarget()
		return &spec{
			name: name, devices: devices, timed: fleet.AttackRollout(devices),
			traced: func(dev *device.Device, index int, seed int64, lt *layers) (fleet.Trial, error) {
				return tracedRollout(dev, index, devices, seed, target, lt)
			},
		}, nil
	case "exhaust":
		targets := exhaustTargets()
		run := func(dev *device.Device, index int, seed int64, lt *layers) (fleet.Trial, error) {
			return exhaustTrial(dev, targets[index%len(targets)], lt)
		}
		return &spec{
			name: name, devices: devices,
			device: device.Config{ServerVM: art.Config{MaxGlobalRefs: exhaustCap}},
			timed: fleet.Workload{Name: "exhaust", Run: func(dev *device.Device, index int, seed int64) (fleet.Trial, error) {
				return run(dev, index, seed, nil)
			}},
			traced: run,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// exhaustTargets lists the 54 exploitable interfaces in catalog order.
func exhaustTargets() []string {
	var out []string
	for _, row := range catalog.ExploitableInterfaces() {
		out = append(out, row.FullName())
	}
	return out
}

// fastestTarget is the interface fleet.AttackRollout attacks: the
// exploitable interface with the shortest catalogued attack time.
func fastestTarget() string {
	rows := catalog.ExploitableInterfaces()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Cost.AttackSeconds < rows[j].Cost.AttackSeconds })
	return rows[0].FullName()
}

// exhaustTrial is Fig. 3 on a recycled slot: one undefended attacker
// registers against its interface until the victim runtime aborts. A
// victim that survives, or aborts anywhere but at its cap, fails the
// trial.
func exhaustTrial(dev *device.Device, target string, lt *layers) (fleet.Trial, error) {
	app, err := lt.install(dev, "com.evil.app")
	if err != nil {
		return fleet.Trial{}, err
	}
	atk, err := workload.NewAttacker(dev, app, target)
	if err != nil {
		return fleet.Trial{}, err
	}
	victim := dev.Service(atk.Target().Service).Host().VM()
	sched := workload.NewScheduler(dev)
	sched.Add(lt.attacker(atk, nil))
	steps := lt.run(sched, victim.Aborted)
	if !victim.Aborted() || victim.MaxGlobal() != exhaustCap || victim.PeakGlobalRefCount() != exhaustCap {
		return fleet.Trial{}, fmt.Errorf("exhaust %s: victim %s aborted=%v at peak %d of cap %d",
			target, victim.Process(), victim.Aborted(), victim.PeakGlobalRefCount(), victim.MaxGlobal())
	}
	return fleet.Trial{Infected: true, PeakJGR: int64(victim.PeakGlobalRefCount()), Steps: int64(steps)}, nil
}

// probeMethods are fleet.BaselineProbe's innocent calls.
var probeMethods = [3]string{"getState", "checkAccess", "noteEvent"}

// tracedProbe rebuilds a fleet.BaselineProbe trial: install and start
// one app, then 6-13 innocent calls picked from the device seed's bits.
func tracedProbe(dev *device.Device, _ int, seed int64, lt *layers) (fleet.Trial, error) {
	app, err := lt.install(dev, "com.fleet.probe")
	if err != nil {
		return fleet.Trial{}, err
	}
	clip, err := dev.NewClient(app, "clipboard")
	if err != nil {
		return fleet.Trial{}, err
	}
	audio, err := dev.NewClient(app, "audio")
	if err != nil {
		return fleet.Trial{}, err
	}
	bits := uint64(seed)
	calls := 6 + int(bits>>40&7)
	for i := 0; i < calls; i++ {
		c := clip
		if bits>>(i&31)&1 == 1 {
			c = audio
		}
		t0 := time.Now()
		err := c.Call(probeMethods[(i+int(bits>>35))%3])
		lt.calls = append(lt.calls, time.Since(t0))
		if err != nil {
			return fleet.Trial{}, err
		}
	}
	st := dev.Stats()
	return fleet.Trial{PeakJGR: int64(st.SystemServerPeakJGR), Steps: int64(calls)}, nil
}

// rolloutInfected is fleet.AttackRollout's staged-infection ramp.
func rolloutInfected(index, devices int, seed int64) bool {
	return int((uint64(seed)>>33)%100) < index*100/devices
}

// rolloutDefense is the quick-scale defender shape fleet trials use.
func rolloutDefense() defense.Config {
	return defense.Config{AlarmThreshold: 400, EngageThreshold: 1200}
}

// tracedRollout rebuilds a fleet.AttackRollout trial with the
// population, the attacker and the scheduler wrapped in timing shims.
func tracedRollout(dev *device.Device, index, devices int, seed int64, target string, lt *layers) (fleet.Trial, error) {
	infected := rolloutInfected(index, devices, seed)
	t0 := time.Now()
	def, err := defense.New(dev, rolloutDefense())
	lt.defNew = append(lt.defNew, time.Since(t0))
	if err != nil {
		return fleet.Trial{}, err
	}
	sched := workload.NewScheduler(dev)
	t0 = time.Now()
	pop, err := workload.Population(dev, nil, 3, seed, 2*time.Second)
	lt.population = append(lt.population, time.Since(t0))
	if err != nil {
		return fleet.Trial{}, err
	}
	for _, b := range pop {
		sched.Add(lt.benign(b))
	}
	var evil string
	if infected {
		app, err := lt.install(dev, "com.evil.app")
		if err != nil {
			return fleet.Trial{}, err
		}
		atk, err := workload.NewAttacker(dev, app, target)
		if err != nil {
			return fleet.Trial{}, err
		}
		evil = app.Package()
		sched.Add(lt.attacker(atk, def))
	}
	var steps int
	if infected {
		steps = lt.run(sched, func() bool { return len(def.History()) > 0 })
	} else {
		horizon := dev.Clock().Now() + 20*time.Second
		steps = lt.run(sched, func() bool { return dev.Clock().Now() >= horizon })
	}
	t := fleet.Trial{Infected: infected, Steps: int64(steps)}
	if hist := def.History(); len(hist) > 0 {
		det := hist[0]
		if infected {
			t.Detected = true
			t.DetectMS = int64(det.EngagedAt / time.Millisecond)
			if det.Recovered {
				t.Recovered = true
				t.RecoverMS = int64((det.EngagedAt + det.AnalysisTime) / time.Millisecond)
			}
		} else {
			t.FalseAlarm = true
		}
		for _, pkg := range det.Killed {
			if pkg == evil {
				t.ColludersCaught++
			} else {
				t.InnocentKills++
			}
		}
	}
	t.PeakJGR = int64(dev.Stats().SystemServerPeakJGR)
	return t, nil
}
