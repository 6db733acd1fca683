package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/simclock"
)

func newKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	return New(simclock.New(), cfg)
}

func TestSpawnAndLookup(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{Name: "com.example.app", Uid: 10001})
	if p.Pid() == 0 {
		t.Fatal("pid not assigned")
	}
	if got := k.Process(p.Pid()); got != p {
		t.Fatal("Process(pid) did not return the spawned process")
	}
	if got := k.FindProcess("com.example.app"); got != p {
		t.Fatal("FindProcess(name) did not return the spawned process")
	}
	if !p.Alive() {
		t.Fatal("fresh process not alive")
	}
	if k.RunningCount() != 1 {
		t.Fatalf("RunningCount = %d, want 1", k.RunningCount())
	}
}

func TestSpawnRequiresName(t *testing.T) {
	k := newKernel(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn without name did not panic")
		}
	}()
	k.Spawn(SpawnConfig{})
}

func TestKillFiresDeathNotification(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{Name: "a", Uid: 10001})
	var notified []*Process
	p.NotifyDeath(func(dead *Process) { notified = append(notified, dead) })

	if err := k.Kill(p.Pid(), "test"); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 1 || notified[0] != p {
		t.Fatalf("death notification = %v", notified)
	}
	if p.Alive() {
		t.Fatal("killed process still alive")
	}
	if p.ExitReason() != "test" {
		t.Fatalf("ExitReason = %q", p.ExitReason())
	}
	if err := k.Kill(p.Pid(), "again"); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("double kill error = %v, want ErrNoSuchProcess", err)
	}
	if k.Process(p.Pid()) != nil {
		t.Fatal("dead process still visible")
	}
}

func TestRuntimeAbortKillsProcess(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{
		Name: "victim", Uid: 10002,
		VM: art.Config{MaxGlobalRefs: 4},
	})
	for i := 0; i < 4; i++ {
		if _, err := p.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow: VM aborts, kernel reaps the process.
	p.VM().AddGlobalRef(&art.Object{ID: 99})
	if p.Alive() {
		t.Fatal("process survived runtime abort")
	}
	if p.ExitReason() == "" {
		t.Fatal("no exit reason after runtime abort")
	}
}

func TestSystemServerDeathSoftReboots(t *testing.T) {
	var rebootReason string
	k := newKernel(t, Config{OnSystemServerDeath: func(r string) { rebootReason = r }})
	ss := k.Spawn(SpawnConfig{
		Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj,
		VM: art.Config{MaxGlobalRefs: 3},
	})
	app := k.Spawn(SpawnConfig{Name: "bystander", Uid: 10005})

	// Exhaust system_server's JGR table — the canonical JGRE attack.
	for i := 0; i < 4; i++ {
		ss.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(i)})
	}
	if ss.Alive() {
		t.Fatal("system_server survived JGR exhaustion")
	}
	if k.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", k.SoftReboots())
	}
	if app.Alive() {
		t.Fatal("bystander app survived the soft reboot")
	}
	if rebootReason == "" {
		t.Fatal("OnSystemServerDeath not invoked")
	}
}

func TestLMKEvictsCachedApps(t *testing.T) {
	// Budget fits exactly 2 default-size apps.
	k := newKernel(t, Config{AppMemoryBudgetKB: 2 * DefaultAppMemoryKB})
	clock := k.Clock()

	a := k.Spawn(SpawnConfig{Name: "a", Uid: 10001, OomScoreAdj: CachedAppMinAdj})
	clock.Advance(time.Second)
	b := k.Spawn(SpawnConfig{Name: "b", Uid: 10002, OomScoreAdj: CachedAppMinAdj})
	clock.Advance(time.Second)
	c := k.Spawn(SpawnConfig{Name: "c", Uid: 10003, OomScoreAdj: ForegroundAppAdj})

	// Spawning c exceeded the budget; the oldest cached app (a) dies.
	if a.Alive() {
		t.Fatal("LMK did not evict the oldest cached app")
	}
	if !b.Alive() || !c.Alive() {
		t.Fatal("LMK evicted the wrong process")
	}
	if a.ExitReason() != "lmk" {
		t.Fatalf("ExitReason = %q, want lmk", a.ExitReason())
	}
	if k.LMKKills() != 1 {
		t.Fatalf("LMKKills = %d, want 1", k.LMKKills())
	}
}

func TestLMKNeverKillsForegroundOrSystem(t *testing.T) {
	k := newKernel(t, Config{AppMemoryBudgetKB: DefaultAppMemoryKB})
	k.Spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj, MemoryKB: 1})
	fg1 := k.Spawn(SpawnConfig{Name: "fg1", Uid: 10001, OomScoreAdj: ForegroundAppAdj})
	fg2 := k.Spawn(SpawnConfig{Name: "fg2", Uid: 10002, OomScoreAdj: ForegroundAppAdj})
	// Over budget but nothing killable: both foreground apps survive.
	if !fg1.Alive() || !fg2.Alive() {
		t.Fatal("LMK killed a foreground app")
	}
	if k.LMKKills() != 0 {
		t.Fatalf("LMKKills = %d, want 0", k.LMKKills())
	}
}

func TestLMKPrefersHighestAdj(t *testing.T) {
	k := newKernel(t, Config{AppMemoryBudgetKB: 2 * DefaultAppMemoryKB})
	svc := k.Spawn(SpawnConfig{Name: "svc", Uid: 10001, OomScoreAdj: ServiceAdj})
	cached := k.Spawn(SpawnConfig{Name: "cached", Uid: 10002, OomScoreAdj: CachedAppMaxAdj})
	k.Spawn(SpawnConfig{Name: "fg", Uid: 10003, OomScoreAdj: ForegroundAppAdj})
	if cached.Alive() {
		t.Fatal("LMK did not pick the highest-adj victim")
	}
	if !svc.Alive() {
		t.Fatal("LMK killed a lower-adj process first")
	}
}

func TestProcessesSorted(t *testing.T) {
	k := newKernel(t, Config{})
	for i := 0; i < 5; i++ {
		k.Spawn(SpawnConfig{Name: "p", Uid: Uid(10001 + i)})
	}
	procs := k.Processes()
	if len(procs) != 5 {
		t.Fatalf("len(Processes) = %d, want 5", len(procs))
	}
	for i := 1; i < len(procs); i++ {
		if procs[i-1].Pid() >= procs[i].Pid() {
			t.Fatal("Processes not sorted by pid")
		}
	}
}

func TestOnKillObserver(t *testing.T) {
	k := newKernel(t, Config{})
	var killed []string
	k.OnKill(func(p *Process, reason string) { killed = append(killed, p.Name()+":"+reason) })
	p := k.Spawn(SpawnConfig{Name: "x", Uid: 10001})
	k.Kill(p.Pid(), "bye")
	if len(killed) != 1 || killed[0] != "x:bye" {
		t.Fatalf("killed = %v", killed)
	}
}

func TestProcFSPermissions(t *testing.T) {
	fs := NewProcFS()
	const path = "/proc/jgre_ipc_log"
	if err := fs.Create(path, RootUid, false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(path, RootUid, false); !errors.Is(err, ErrFileExists) {
		t.Fatalf("duplicate create error = %v", err)
	}
	if err := fs.Append(path, RootUid, []byte("rec1\n")); err != nil {
		t.Fatal(err)
	}
	// Kernel-only file: app uid cannot write or read.
	if err := fs.Append(path, 10001, []byte("fake\n")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("app append error = %v, want permission denied", err)
	}
	if _, err := fs.Read(path, 10001); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("app read error = %v, want permission denied", err)
	}
	// The system (JGRE Defender) can read it.
	data, err := fs.Read(path, SystemUid)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "rec1\n" {
		t.Fatalf("read = %q", data)
	}
}

func TestProcFSWorldReadable(t *testing.T) {
	fs := NewProcFS()
	if err := fs.Create("/proc/meminfo", RootUid, true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/proc/meminfo", RootUid, []byte("MemTotal: 2048")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/proc/meminfo", 10042); err != nil {
		t.Fatalf("world-readable read failed: %v", err)
	}
}

func TestProcFSMissingFile(t *testing.T) {
	fs := NewProcFS()
	if _, err := fs.Read("/proc/nope", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read missing error = %v", err)
	}
	if err := fs.Write("/proc/nope", RootUid, nil); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("write missing error = %v", err)
	}
	if err := fs.Remove("/proc/nope", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("remove missing error = %v", err)
	}
}

func TestProcFSRemoveAndList(t *testing.T) {
	fs := NewProcFS()
	fs.Create("/proc/b", RootUid, true)
	fs.Create("/proc/a", RootUid, true)
	got := fs.List()
	if len(got) != 2 || got[0] != "/proc/a" || got[1] != "/proc/b" {
		t.Fatalf("List = %v", got)
	}
	if err := fs.Remove("/proc/a", 10001); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner remove error = %v", err)
	}
	if err := fs.Remove("/proc/a", RootUid); err != nil {
		t.Fatal(err)
	}
	if len(fs.List()) != 1 {
		t.Fatal("remove did not delete the file")
	}
}

func TestIsAppUid(t *testing.T) {
	if IsAppUid(SystemUid) {
		t.Fatal("system uid classified as app")
	}
	if !IsAppUid(FirstAppUid) || !IsAppUid(10061) {
		t.Fatal("app uid not classified as app")
	}
}

// appMemoryKB is the scanning oracle for Kernel.appKB: it sums the RSS of
// alive app-uid processes over the merged overlay + frozen view, the way
// runLMK computed it before the total was maintained incrementally.
func appMemoryKB(k *Kernel) int {
	total := 0
	k.each(func(p *Process) {
		if p.alive && IsAppUid(p.uid) {
			total += p.memoryKB
		}
	})
	return total
}

// liveCount is the scanning oracle for RunningCount.
func liveCount(k *Kernel) int {
	n := 0
	k.each(func(p *Process) {
		if p.alive {
			n++
		}
	})
	return n
}

func checkTotals(t *testing.T, k *Kernel, where string) {
	t.Helper()
	if got, want := k.appKB, appMemoryKB(k); got != want {
		t.Fatalf("%s: appKB = %d, scan = %d", where, got, want)
	}
	if got, want := k.RunningCount(), liveCount(k); got != want {
		t.Fatalf("%s: RunningCount = %d, scan = %d", where, got, want)
	}
}

// lifecycleStep applies one random process-lifecycle event: an app or
// system spawn (which may trigger the LMK), a kill, a system_server death
// (soft reboot) or, when cascades is set, a death notification that kills
// another process when it fires.
func lifecycleStep(rng *rand.Rand, k *Kernel, cascades bool) {
	pick := func() Pid { return Pid(1 + rng.Intn(int(k.nextPid)-1)) }
	switch r := rng.Intn(100); {
	case r < 45:
		uid := FirstAppUid + Uid(rng.Intn(50))
		if rng.Intn(4) == 0 {
			uid = Uid(rng.Intn(int(FirstAppUid)))
		}
		adjs := []int{ForegroundAppAdj, VisibleAppAdj, ServiceAdj, CachedAppMinAdj, CachedAppMaxAdj}
		k.Spawn(SpawnConfig{
			Name:        fmt.Sprintf("p%d", k.nextPid),
			Uid:         uid,
			OomScoreAdj: adjs[rng.Intn(len(adjs))],
			MemoryKB:    rng.Intn(3) * rng.Intn(2*DefaultAppMemoryKB),
		})
	case r < 80:
		k.Kill(pick(), "test")
	case r < 85:
		if ss := k.FindProcess(SystemServerName); ss != nil {
			k.Kill(ss.Pid(), "test")
		}
	case cascades:
		if p := k.Process(pick()); p != nil {
			victim := pick()
			p.NotifyDeath(func(*Process) { k.Kill(victim, "cascade") })
		}
	}
}

// TestIncrementalTotalsMatchScan drives seeded Spawn / Kill / soft-reboot
// sequences through a booted kernel, its sealed template and a chain of
// Clone / CloneReusing clones, asserting after every step that the
// maintained appKB and running totals equal a scan of the process table.
func TestIncrementalTotalsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The budget fits a handful of default apps, so the LMK fires
		// often and its kills feed the totals too.
		cfg := Config{AppMemoryBudgetKB: (4 + rng.Intn(4)) * DefaultAppMemoryKB}
		restart := func(k **Kernel) func(string) {
			return func(string) {
				(*k).Spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj})
				for i := 0; i < 2; i++ {
					(*k).Spawn(SpawnConfig{Name: "filler", Uid: FirstAppUid + Uid(i), OomScoreAdj: CachedAppMinAdj})
				}
			}
		}
		var tmpl *Kernel
		cfg.OnSystemServerDeath = restart(&tmpl)
		tmpl = New(simclock.New(), cfg)
		tmpl.Spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj})
		for step := 0; step < 60; step++ {
			lifecycleStep(rng, tmpl, false)
			checkTotals(t, tmpl, fmt.Sprintf("seed %d template step %d", seed, step))
		}
		tmpl.Seal()
		checkTotals(t, tmpl, fmt.Sprintf("seed %d sealed", seed))
		sealedKB, sealedRunning := tmpl.appKB, tmpl.running

		var clone, prev *Kernel
		for round := 0; round < 6; round++ {
			if round%2 == 0 {
				clone = tmpl.Clone(simclock.New(), restart(&clone))
			} else {
				clone = tmpl.CloneReusing(prev, simclock.New(), restart(&clone))
			}
			checkTotals(t, clone, fmt.Sprintf("seed %d round %d clone", seed, round))
			for step := 0; step < 80; step++ {
				lifecycleStep(rng, clone, true)
				checkTotals(t, clone, fmt.Sprintf("seed %d round %d step %d", seed, round, step))
			}
			prev = clone
		}
		checkTotals(t, tmpl, fmt.Sprintf("seed %d template after clones", seed))
		if tmpl.appKB != sealedKB || tmpl.running != sealedRunning {
			t.Fatalf("seed %d: clones mutated the sealed template's totals", seed)
		}
	}
}

// BenchmarkSpawn prices one app Spawn (including its LMK check) on a
// kernel already running the given number of live processes. The LMK
// check reads a maintained total, so the per-spawn cost must not grow
// with the table: make bench-smoke gates live=800 at <= 2x live=50.
func BenchmarkSpawn(b *testing.B) {
	for _, live := range []int{50, 800} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			// Rebuild the table every batch so the timed spawns never pile
			// up dead or extra entries that would blur the two sizes.
			const batch = 32
			var k *Kernel
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					b.StopTimer()
					k = New(simclock.New(), Config{})
					for j := 0; j < live; j++ {
						k.Spawn(SpawnConfig{Name: "native", Uid: SystemUid, OomScoreAdj: SystemAdj, MemoryKB: 1})
					}
					b.StartTimer()
				}
				k.Spawn(SpawnConfig{Name: "app", Uid: FirstAppUid + Uid(i%batch), OomScoreAdj: CachedAppMinAdj})
			}
		})
	}
}
