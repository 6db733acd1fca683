// Command benchmark is the repository's end-to-end benchmark. It runs
// one fleet workload (probe, rollout or exhaust; see NOTES.md) as a
// closed loop of fleet.Run calls over recycled device slots, checks the
// simulated output, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	sh benchmark/run.sh --workload probe --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it alternates untraced runs with traced runs that time
// every layer from outside, and reports the per-layer metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
)

const (
	// defaultSeed is the seed the stored digests were taken at.
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; a claimed gain
	// is re-checked on it.
	heldOutSeed = 2
	// setupRuns is how many fresh processes set up per run; setup_s is
	// their median.
	setupRuns = 11
	// minReps is the fewest fleet runs a measurement makes.
	minReps = 3
	// maxWorkers caps the fleet workers. A fixed width keeps results from
	// hosts with more CPUs comparable.
	maxWorkers = 2
	// warmDevices is the warm-up fleet every set-up runs before timing.
	warmDevices = 8
)

// digests are the SHA-256 of each workload's fleet.Result JSON at
// defaultSeed and the workload's default fleet width.
var digests = map[string]string{
	"probe":   "c07abe31e1f5e2b7d1a0ac1e4ce26b466173e62a9ef626b5086da3d13431f68b",
	"rollout": "91a368ab2e2f5611df28d865d7c5586316fe88aef622b6ddbf4f33482e14a946",
	"exhaust": "c6069e0238a3c8f21675151decc2b6b90a7aa4d95edcc6615d8e3d6b6c5a9123",
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{workers: min(maxWorkers, runtime.NumCPU())}
	var trace int
	var seconds int
	var setupOnly bool
	flag.StringVar(&o.workload, "workload", "", "workload: probe, rollout or exhaust")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (becomes the fleet seed)")
	flag.IntVar(&seconds, "seconds", 30, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from traced runs")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up, then exit (used to time set-up in a fresh process)")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	sp, err := newSpec(o.workload, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	if err := warmUp(ctx, sp, o.seed, o.workers); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: set-up:", err)
		os.Exit(1)
	}
	if setupOnly {
		return
	}
	var setups []float64
	if !o.trace {
		if setups, err = childSetups(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	res, prov, err := bench(ctx, sp, o, setups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", pj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// warmUp boots the workload's device template and runs a small fleet
// on a different seed, so lazily built state exists before timing.
func warmUp(ctx context.Context, sp *spec, seed int64, workers int) error {
	cfg := fleet.Config{Devices: min(warmDevices, sp.devices), Workers: workers, Seed: seed ^ 0x5eed, Device: sp.device}
	_, err := fleet.Run(ctx, cfg, sp.timed)
	return err
}

// bench measures one workload, after set-up. setups are the measured
// set-up times in seconds; only untraced runs report them.
func bench(ctx context.Context, sp *spec, o options, setups []float64) (*result, provenance, error) {
	prov := hostProvenance()
	prov.Workers, prov.Workload, prov.Devices = o.workers, sp.name, sp.devices
	prov.Seed, prov.Seconds, prov.Trace = o.seed, int(o.seconds/time.Second), o.trace
	m := newMeasurement(sp, o)
	var err error
	if o.trace {
		err = m.traced(ctx)
	} else {
		err = m.timed(ctx, setups)
	}
	if err != nil {
		return nil, prov, err
	}
	return m.result(), prov, nil
}

// childSetups times setupRuns fresh processes from exec to the end of
// their warm-up: set-up state lives in process-wide caches, so it can
// only be repeated in a new process.
func childSetups(ctx context.Context, o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		cmd := exec.CommandContext(cctx, exe, "--setup-only", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// measurement accumulates the runs of one invocation.
type measurement struct {
	sp *spec
	o  options

	// untraced fleet runs
	dps, iqm, p90, allocKB []float64
	gcCPU, totalCPU        float64
	gcCycles, rtDevices    uint64
	// traced fleet runs: one value per run and metric
	layer     map[string][]float64
	units     map[string]string
	tracedDPS []float64

	setupS    float64
	rssMB     float64
	attempted int64
	want      []byte        // the first untraced rollup
	trials    []fleet.Trial // the first traced run's trials
	failures  []string
}

func newMeasurement(sp *spec, o options) *measurement {
	return &measurement{sp: sp, o: o, layer: map[string][]float64{}, units: map[string]string{}}
}

func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

func (m *measurement) config() fleet.Config {
	return fleet.Config{Devices: m.sp.devices, Workers: m.o.workers, Seed: m.o.seed, Device: m.sp.device}
}

// timedRep is one untraced fleet.Run. Each trial's host time is taken
// around the workload's Run; nothing inside the program is timed.
func (m *measurement) timedRep(ctx context.Context, durs []time.Duration) (time.Duration, error) {
	w := m.sp.timed
	inner := w.Run
	w.Run = func(dev *device.Device, i int, seed int64) (fleet.Trial, error) {
		t0 := time.Now()
		tr, err := inner(dev, i, seed)
		durs[i] = time.Since(t0)
		return tr, err
	}
	r0 := readRuntime()
	t0 := time.Now()
	res, err := fleet.Run(ctx, m.config(), w)
	wall := time.Since(t0)
	r1 := readRuntime()
	m.attempted += int64(m.sp.devices)
	if err != nil {
		return wall, err
	}
	n := float64(m.sp.devices)
	ms := sorted(durs, time.Millisecond)
	m.dps = append(m.dps, n/wall.Seconds())
	m.p90 = append(m.p90, quantile(ms, 0.90))
	m.iqm = append(m.iqm, interquartileMean(ms))
	m.allocKB = append(m.allocKB, float64(r1.allocBytes-r0.allocBytes)/1024/n)
	fmt.Fprintf(os.Stderr, "# run %d: %.1f devices/s, trial iqm %.4f ms, p90 %.4f ms\n",
		len(m.dps), m.dps[len(m.dps)-1], m.iqm[len(m.iqm)-1], m.p90[len(m.p90)-1])
	m.gcCPU += r1.gcCPU - r0.gcCPU
	m.totalCPU += r1.totalCPU - r0.totalCPU
	m.gcCycles += r1.gcCycles - r0.gcCycles
	m.rtDevices += uint64(m.sp.devices)
	b, err := json.Marshal(res)
	if err != nil {
		return wall, err
	}
	switch {
	case m.want == nil:
		m.want = b
		if m.o.seed == defaultSeed && m.sp.devices == defaultWidths[m.sp.name] {
			sum := sha256.Sum256(b)
			if got, want := hex.EncodeToString(sum[:]), digests[m.sp.name]; got != want {
				m.fail("%s rollup digest %s, want stored %s", m.sp.name, got, want)
			}
		}
	case string(b) != string(m.want):
		m.fail("untraced rollups differ between runs of the same seed")
	}
	return wall, nil
}

// tracedRep is one traced run; its trials must reproduce the untraced
// rollup.
func (m *measurement) tracedRep(ctx context.Context) (time.Duration, error) {
	tr, err := runTraced(ctx, m.sp, m.o.seed, m.o.workers)
	m.attempted += int64(m.sp.devices)
	if err != nil {
		return 0, err
	}
	if m.trials == nil {
		m.trials = tr.trials
		res, err := replay(ctx, m.sp, m.o.seed, m.o.workers, tr.trials)
		if err != nil {
			return tr.wall, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return tr.wall, err
		}
		if string(b) != string(m.want) {
			m.fail("traced rollup differs from the untraced rollup:\n traced   %s\n untraced %s", b, m.want)
		}
	} else {
		for i := range tr.trials {
			if tr.trials[i] != m.trials[i] {
				m.fail("traced runs of the same seed differ at device %d", i)
				break
			}
		}
	}
	m.addLayers(tr)
	return tr.wall, nil
}

// loop repeats reps until the run length is spent, stopping early
// rather than overrunning it by a whole rep, but never before minReps.
func (m *measurement) loop(reps int, rep func() (time.Duration, error)) error {
	deadline := time.Now().Add(m.o.seconds)
	for i := 0; ; i++ {
		wall, err := rep()
		if err != nil {
			return err
		}
		if i+1 >= reps && time.Now().Add(wall).After(deadline) {
			return nil
		}
	}
}

// timed measures untraced runs, then checks them against one traced
// run.
func (m *measurement) timed(ctx context.Context, setups []float64) error {
	m.setupS = median(setups)
	durs := make([]time.Duration, m.sp.devices)
	err := m.loop(minReps, func() (time.Duration, error) { return m.timedRep(ctx, durs) })
	m.rssMB = maxRSSMB()
	if err == nil {
		_, err = m.tracedRep(ctx)
	}
	return m.runError(err)
}

// traced alternates untraced and traced runs.
func (m *measurement) traced(ctx context.Context) error {
	durs := make([]time.Duration, m.sp.devices)
	err := m.loop(2, func() (time.Duration, error) {
		w1, err := m.timedRep(ctx, durs)
		if err != nil {
			return w1, err
		}
		w2, err := m.tracedRep(ctx)
		return w1 + w2, err
	})
	return m.runError(err)
}

// runError turns a failed trial into a failed measurement: the run is
// reported with every attempt failed. Only context cancellation aborts.
func (m *measurement) runError(err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	m.fail("%v", err)
	return nil
}

func (m *measurement) put(name, unit string, v float64) {
	m.layer[name] = append(m.layer[name], v)
	m.units[name] = unit
}

// addLayers derives every per-layer metric of one traced run.
func (m *measurement) addLayers(tr *tracedRun) {
	lt := tr.layers
	n := float64(lt.devices)
	p50 := func(ds []time.Duration) float64 { return quantile(sorted(ds, time.Microsecond), 0.5) }
	busy := sum(lt.acquire) + sum(lt.trial) + sum(lt.fold)
	m.put("device.acquire_us_p50", "us", p50(lt.acquire))
	m.put("device.acquire_share", "frac", sum(lt.acquire).Seconds()/busy.Seconds())
	m.put("apps.install_us_p50", "us", p50(lt.installs))
	m.put("kernel.lmk_kills", "count", float64(lt.lmkKills))
	m.put("services.call_us_p50", "us", p50(lt.calls))
	m.put("binder.tx_per_device", "count", float64(lt.tx)/n)
	m.put("binder.log_records_per_device", "count", float64(lt.logRecs)/n)
	m.put("binder.log_dropped_per_device", "count", float64(lt.logDrop)/n)
	m.put("workload.attacker_step_us_p50", "us", p50(lt.atkStep))
	m.put("workload.benign_step_us_p50", "us", p50(lt.benignStep))
	m.put("workload.population_us", "us", p50(lt.population))
	var self float64
	if lt.steps > 0 {
		self = (lt.schedRun - lt.stepTime).Seconds() * 1e6 / float64(lt.steps)
	}
	m.put("event.self_us_per_step", "us", self)
	m.put("event.steps_per_device", "count", float64(lt.steps)/n)
	m.put("art.jgr_adds_per_device", "count", float64(lt.jgrAdds)/n)
	m.put("art.jgr_removes_per_device", "count", float64(lt.jgrRemoves)/n)
	m.put("art.peak_jgr", "count", float64(lt.peakJGR))
	var perAdd float64
	if lt.jgrAdds > 0 {
		perAdd = sum(lt.atkStep).Seconds() * 1e6 / float64(lt.jgrAdds)
	}
	m.put("art.step_us_per_jgr_add", "us", perAdd)
	m.put("defense.new_us", "us", p50(lt.defNew))
	m.put("defense.engage_step_ms", "ms", p50(lt.engage)/1000)
	m.put("defense.detections", "count", float64(lt.detections))
	m.put("defense.innocent_kills", "count", float64(lt.innocentKills))
	m.put("fleet.fold_us", "us", sum(lt.fold).Seconds()*1e6/n)
	m.put("parallel.busy_frac", "frac", busy.Seconds()/(tr.wall.Seconds()*float64(m.o.workers)))
	m.tracedDPS = append(m.tracedDPS, n/tr.wall.Seconds())
}

// result renders the measurement. Any failed check fails every attempt.
func (m *measurement) result() *result {
	r := &result{Correct: len(m.failures) == 0, Attempted: max(m.attempted, 1), Metrics: map[string]metric{}}
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	success := 1 - float64(r.Failed)/float64(r.Attempted)
	if !m.o.trace {
		r.Metrics["devices_per_s"] = metric{median(m.dps), "1/s"}
		r.Metrics["trial_iqm_ms"] = metric{median(m.iqm), "ms"}
		r.Metrics["trial_p90_ms"] = metric{median(m.p90), "ms"}
		r.Metrics["alloc_kb_per_device"] = metric{median(m.allocKB), "KiB"}
		r.Metrics["max_rss_mb"] = metric{m.rssMB, "MiB"}
		r.Metrics["setup_s"] = metric{m.setupS, "s"}
		r.Metrics["success_frac"] = metric{success, "frac"}
		return r
	}
	for name, vs := range m.layer {
		r.Metrics[name] = metric{median(vs), m.units[name]}
	}
	var gcFrac, gcPerDevice float64
	if m.totalCPU > 0 {
		gcFrac = m.gcCPU / m.totalCPU
	}
	if m.rtDevices > 0 {
		gcPerDevice = float64(m.gcCycles) / float64(m.rtDevices)
	}
	r.Metrics["runtime.gc_cpu_frac"] = metric{gcFrac, "frac"}
	r.Metrics["runtime.gc_cycles_per_device"] = metric{gcPerDevice, "count"}
	var overhead float64
	if plain := median(m.dps); plain > 0 {
		overhead = 1 - median(m.tracedDPS)/plain
	}
	r.Metrics["bench.trace_overhead_frac"] = metric{overhead, "frac"}
	return r
}
