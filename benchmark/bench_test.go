package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
)

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// tinyDevices keeps each workload's test fleet small; exhaust still
// spans two chunks.
var tinyDevices = map[string]int{"probe": 96, "rollout": 24, "exhaust": 66}

func metricNames(r *result) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsEmitEveryMetric runs each workload briefly in both modes
// and checks the result carries exactly the metrics BENCHMARK.json
// lists, with the correctness checks passing.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer, workloads := benchmarkJSON(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	if got := workloadNames(); len(got) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", workloads, got)
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: heldOutSeed, seconds: 1, trace: trace, workers: maxWorkers}
			sp, err := newSpec(name, tinyDevices[name])
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := bench(context.Background(), sp, o, []float64{0.5})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v metrics\n got %v\nwant %v", name, trace, got, want)
			}
		}
	}
}

// TestTracedMirrorMatchesRegistry runs the registry workloads and the
// benchmark's traced mirrors on twin devices and requires the same
// Trial, device for device.
func TestTracedMirrorMatchesRegistry(t *testing.T) {
	const devices = 16
	var infected, clean int
	for _, name := range []string{"probe", "rollout"} {
		sp, err := newSpec(name, devices)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < devices; i++ {
			seed := fleet.DeviceSeed(defaultSeed, i)
			a, err := device.Boot(device.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			b, err := device.Boot(device.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sp.timed.Run(a, i, seed)
			if err != nil {
				t.Fatalf("%s device %d: registry: %v", name, i, err)
			}
			got, err := sp.traced(b, i, seed, &layers{})
			if err != nil {
				t.Fatalf("%s device %d: mirror: %v", name, i, err)
			}
			if got != want {
				t.Errorf("%s device %d: mirror trial\n got %+v\nwant %+v", name, i, got, want)
			}
			if name == "rollout" && want.Infected {
				infected++
			} else if name == "rollout" {
				clean++
			}
		}
	}
	if infected == 0 || clean == 0 {
		t.Errorf("rollout sample has %d infected and %d clean devices; want both", infected, clean)
	}
}

func rollupDigest(t *testing.T, sp *spec, seed int64) string {
	t.Helper()
	res, err := fleet.Run(context.Background(), fleet.Config{Devices: sp.devices, Workers: maxWorkers, Seed: seed, Device: sp.device}, sp.timed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSeedChangesInputs: the workload seed is the fleet seed, so a
// different seed gives different trials while the same seed repeats.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames() {
		sp, err := newSpec(name, tinyDevices[name])
		if err != nil {
			t.Fatal(err)
		}
		a, b := rollupDigest(t, sp, defaultSeed), rollupDigest(t, sp, heldOutSeed)
		if a == b {
			t.Errorf("%s: seeds %d and %d give the same rollup", name, defaultSeed, heldOutSeed)
		}
		if again := rollupDigest(t, sp, defaultSeed); again != a {
			t.Errorf("%s: seed %d does not repeat", name, defaultSeed)
		}
	}
}

// TestStoredDigests recomputes each workload's default-seed rollup at
// its full fleet width.
func TestStoredDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-width fleets")
	}
	for _, name := range workloadNames() {
		sp, err := newSpec(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := rollupDigest(t, sp, defaultSeed); got != digests[name] {
			t.Errorf("%s: rollup digest %s, stored %s", name, got, digests[name])
		}
	}
}
