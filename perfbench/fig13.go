package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/msr"
	"cmm/internal/pmu"
	"cmm/internal/runstore"
	"cmm/internal/sim"
	"cmm/internal/workload"
)

// The fig13-quick workload: the paper's quick Fig. 13 sweep (QuickOptions,
// the 7 paper policies, 8 mixes, 2 workers) into a fresh run store, then
// warm re-runs that each open the filled store afresh, as a new
// `cmmsim -store` process does.
const (
	fig13Workers = 2
	// The set-up is timed in fig13SetupBatches batches of fig13SetupReps.
	fig13SetupBatches = 5
	fig13SetupReps    = 40
	// fig13CheckMix is the mix whose solo, baseline and CMM-a simulations
	// the benchmark re-runs itself to recompute NormHS and NormWS.
	fig13CheckMix = "Pref Unfri #1"
)

func fig13Options(rc runConfig) experiments.Options {
	o := experiments.QuickOptions()
	o.Seeds = []int64{rc.inputs.simSeed}
	o.Workers = fig13Workers
	return o
}

// fig13Mixes selects the sweep's mixes the way RunComparison does: the
// first MixesPerCategory of each paper category.
func fig13Mixes(o experiments.Options) ([]mixes.Mix, error) {
	all, err := mixes.All(o.Cores, o.BaseSeed)
	if err != nil {
		return nil, err
	}
	var out []mixes.Mix
	kept := map[mixes.Category]int{}
	for _, m := range all {
		if kept[m.Category] < o.MixesPerCategory {
			kept[m.Category]++
			out = append(out, m)
		}
	}
	return out, nil
}

// sweepRuns is how many simulations a cold sweep performs: one solo run per
// distinct benchmark plus one run per (mix, policy or baseline, seed).
func sweepRuns(o experiments.Options, ms []mixes.Mix, policies int) int {
	seen := map[string]bool{}
	for _, m := range ms {
		for _, s := range m.Specs {
			seen[s.Name] = true
		}
	}
	return len(seen) + len(ms)*(policies+1)*len(o.Seeds)
}

// openStore opens a run store, through a timing file system when fsys is
// non-nil.
func openStore(dir string, fsys *timedFS) (*runstore.Store, error) {
	if fsys == nil {
		return runstore.Open(dir)
	}
	return runstore.Open(dir, runstore.WithFS(fsys))
}

// progressLog timestamps Options.Progress callbacks.
type progressLog struct {
	mu     sync.Mutex
	start  time.Time
	at     []float64 // seconds since start, one per completed run
	tr     *tracer
	parent int
}

func (p *progressLog) tick(done, total int) {
	p.mu.Lock()
	p.at = append(p.at, time.Since(p.start).Seconds())
	p.mu.Unlock()
	p.tr.end(p.tr.begin("experiments.progress", p.parent))
}

func runFig13(rc runConfig, r *report) error {
	policies := cmm.Policies()[1:]
	// Set-up is what a sweep needs before its first run: the options, the
	// mixes and a fresh run store; the last one serves the sweep.
	var opts experiments.Options
	var ms []mixes.Mix
	storeDir := ""
	setup, err := batchedSetup(fig13SetupBatches, fig13SetupReps, func(i int) (time.Duration, error) {
		cpu0 := cpuNow()
		opts = fig13Options(rc)
		var err error
		if ms, err = fig13Mixes(opts); err != nil {
			return 0, err
		}
		storeDir = filepath.Join(rc.dir, fmt.Sprintf("store%d", i))
		if opts.Store, err = openStore(storeDir, nil); err != nil {
			return 0, err
		}
		return cpuNow() - cpu0, nil
	})
	if err != nil {
		return err
	}
	total := sweepRuns(opts, ms, len(policies))

	var tr *tracer
	var prof *profile
	var coldFS *timedFS
	var sink *eventSink
	var prog *progressLog
	var m0 memSnap
	if rc.trace {
		tr = newTracer()
		prof = &profile{}
		coldFS = newTimedFS(tr, "runstore.fs.")
		sink = &eventSink{tr: tr}
		if opts.Store, err = openStore(storeDir, coldFS); err != nil {
			return err
		}
		opts.Telemetry = sink
		m0 = readMem()
		if err := prof.start(); err != nil {
			return err
		}
	}

	// Cold sweep.
	sweepSpan := tr.begin("experiments.RunComparison", 0)
	if rc.trace {
		coldFS.parent.Store(int64(sweepSpan))
		sink.parent.Store(int64(sweepSpan))
		prog = &progressLog{start: time.Now(), tr: tr, parent: sweepSpan}
		opts.Progress = prog.tick
	}
	start, cpu0 := time.Now(), cpuNow()
	cold, err := experiments.RunComparison(opts, policies)
	sweep, sweepCPU := time.Since(start), cpuNow()-cpu0
	tr.end(sweepSpan)
	if err != nil {
		return err
	}
	computes := opts.Store.Stats().Computes
	r.op("cold sweep simulation runs", int64(total), 0)
	r.check(computes == int64(total), "fig13-quick: cold sweep computed %d runs, want %d", computes, total)
	hsSum := checkComparison(cold, r)
	normHS := hsSum / float64(len(ms))

	// Warm re-runs: each opens the filled store afresh and must reproduce the
	// cold results without computing anything. Each returns its CPU and wall
	// time in ms.
	warmOpts := opts
	warmOpts.Progress, warmOpts.Telemetry = nil, nil
	warm := func(fsys *timedFS) (float64, float64, error) {
		id := tr.begin("warm re-run", 0)
		if fsys != nil {
			fsys.parent.Store(int64(id))
		}
		start, cpu0 := time.Now(), cpuNow()
		s, err := openStore(storeDir, fsys)
		if err != nil {
			return 0, 0, err
		}
		o := warmOpts
		o.Store = s
		comp, err := experiments.RunComparison(o, policies)
		cpu, d := cpuNow()-cpu0, time.Since(start)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		r.check(reflect.DeepEqual(comp.Results, cold.Results) && reflect.DeepEqual(comp.Telemetry, cold.Telemetry),
			"fig13-quick: warm re-run results differ from the cold run")
		r.check(s.Stats().Computes == 0, "fig13-quick: warm re-run computed %d runs", s.Stats().Computes)
		return float64(cpu.Nanoseconds()) / 1e6, float64(d.Nanoseconds()) / 1e6, nil
	}
	var warmMs, warmWallMs, tracedWarmMs []float64
	warmFS := newTimedFS(tr, "runstore.fs.")
	phase := time.Duration(rc.seconds) * time.Second
	if rc.trace {
		prof.stop()
		phase /= 2 // half untraced (the overhead reference), half traced
	}
	warmStart, warmCPU0 := time.Now(), cpuNow()
	for deadline := warmStart.Add(phase); time.Now().Before(deadline) || len(warmMs) < 2; {
		t, w, err := warm(nil)
		if err != nil {
			return err
		}
		warmMs, warmWallMs = append(warmMs, t), append(warmWallMs, w)
	}
	warmWall, warmCPU := time.Since(warmStart), cpuNow()-warmCPU0
	if rc.trace {
		if err := prof.start(); err != nil {
			return err
		}
		for deadline := time.Now().Add(phase); time.Now().Before(deadline) || len(tracedWarmMs) < 2; {
			t, _, err := warm(warmFS)
			if err != nil {
				return err
			}
			tracedWarmMs = append(tracedWarmMs, t)
		}
	}
	reruns := len(warmMs) + len(tracedWarmMs)
	r.op("warm re-run store lookups", int64(reruns*total), 0)
	r.note("warm re-runs: %d", reruns)

	// Independent NormHS/NormWS recomputation on one mix.
	ctl, sims, err := checkNormHS(opts, ms, cold, tr, r)
	if err != nil {
		return err
	}
	r.op("independent-check simulation runs", int64(sims), 0)

	warmP50 := median(warmMs)
	r.endToEnd("setup_s", "setup_cpu_s", "s", setup)
	r.endToEnd("work_s", "sweep_cpu_s", "s", sweepCPU.Seconds())
	r.endToEnd("op_ms", "warm_sweep_cpu_ms", "ms", warmP50)
	r.endToEnd("rate_per_s", "warm_reruns_per_cpu_s", "1/s", float64(len(warmMs))/warmCPU.Seconds())
	r.endToEnd("quality", "normhs_cmm-a", "ratio", normHS)
	r.named("sweep_s", "s", sweep.Seconds())
	r.named("warm_sweep_ms", "ms", median(warmWallMs))
	r.named("warm_sweep_p95_ms", "ms", percentile(warmWallMs, 95))
	r.named("warm_reruns_per_s", "1/s", float64(len(warmMs))/warmWall.Seconds())
	if !rc.trace {
		return nil
	}
	prof.stop()
	m1 := readMem()

	lv := layerValues{ctl: ctl, simRuns: computes, events: sink.n.Load()}
	nSolo := total - len(ms)*(len(policies)+1)*len(opts.Seeds)
	at := prog.at
	if len(at) == total && nSolo > 0 {
		lv.soloS = at[nSolo-1]
		lv.runsS = at[total-1] - at[nSolo-1]
		lv.tailS = at[total-1] - at[total-fig13Workers]
	}
	ts := cold.Telemetry["CMM-a"]
	lv.cmmaProfShare, lv.cmmaSampled = ts.OverheadFraction, int64(ts.SampledCombos)
	c := coldFS.counts()
	lv.puts, lv.bytesWritten = c.writes, c.bytesWritten
	if c.writes > 0 {
		lv.putUs = float64(c.writeNs+c.renameNs) / float64(c.writes) / 1e3
	}
	w := warmFS.counts()
	n := float64(len(tracedWarmMs))
	lv.getsPerOp, lv.fsOpsPerOp = float64(w.reads)/n, float64(w.ops)/n
	if w.reads > 0 {
		lv.getUs = float64(w.readNs) / float64(w.reads) / 1e3
	}
	emitLayers(r, lv)
	return layerTail(rc, r, tr, prof, m0, m1, 100*(median(tracedWarmMs)/warmP50-1))
}

// checkComparison checks every score of a comparison and returns the sum of
// CMM-a's NormHS over the mixes.
func checkComparison(c *experiments.Comparison, r *report) float64 {
	sum := 0.0
	for _, p := range c.Policies {
		rows := c.Results[p]
		r.check(len(rows) == len(c.Mixes), "comparison: %s has %d results for %d mixes", p, len(rows), len(c.Mixes))
		for _, m := range rows {
			for name, v := range map[string]float64{"NormHS": m.NormHS, "NormWS": m.NormWS,
				"WorstCase": m.WorstCase, "NormBW": m.NormBW, "NormStalls": m.NormStalls} {
				r.check(v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "comparison: %s %s %s = %g, want finite and > 0", p, m.Mix, name, v)
			}
			r.check(m.WorstCase <= m.NormWS, "comparison: %s %s WorstCase %g > NormWS %g", p, m.Mix, m.WorstCase, m.NormWS)
			if p == "CMM-a" {
				sum += m.NormHS
				if m.Category == mixes.PrefUnfri {
					r.check(m.NormHS > 1, "comparison: CMM-a NormHS on %s is %g, want > 1 (the paper's central result)", m.Mix, m.NormHS)
				}
			}
		}
	}
	return sum
}

// checkNormHS re-runs one mix's solo, baseline and CMM-a simulations through
// sim.New and cmm.NewController with the sweep's options and seeds, computes
// NormHS and NormWS with the benchmark's own arithmetic, and requires the
// sweep's values to agree to 1e-9 relative. The controller runs go through
// a timedTarget, whose measurements it returns.
func checkNormHS(o experiments.Options, ms []mixes.Mix, c *experiments.Comparison, tr *tracer, r *report) (controllerLayers, int, error) {
	var l controllerLayers
	idx := -1
	for i, m := range ms {
		if m.Name == fig13CheckMix {
			idx = i
		}
	}
	if idx < 0 {
		return l, 0, fmt.Errorf("no mix %q in the sweep", fig13CheckMix)
	}
	mix := ms[idx]
	span := tr.begin("check.NormHS", 0)
	defer tr.end(span)
	alone := make([]float64, len(mix.Specs))
	for i, spec := range mix.Specs {
		ipc, err := soloIPC(o, spec)
		if err != nil {
			return l, 0, err
		}
		alone[i] = ipc
	}
	seed := o.Seeds[0]
	base, err := controlledIPC(o, mix, cmm.Baseline{}, seed, tr, span, &l)
	if err != nil {
		return l, 0, err
	}
	cmma, err := controlledIPC(o, mix, &cmm.Coordinated{Variant: cmm.VariantA}, seed, tr, span, &l)
	if err != nil {
		return l, 0, err
	}
	hs := harmonicSpeedup(alone, cmma) / harmonicSpeedup(alone, base)
	ws := 0.0
	for i := range cmma {
		ws += cmma[i] / base[i]
	}
	ws /= float64(len(cmma))
	got := c.Results["CMM-a"][idx]
	r.check(len(o.Seeds) == 1, "fig13-quick: the NormHS check assumes one seed, options have %d", len(o.Seeds))
	r.check(relClose(got.NormHS, hs), "fig13-quick: %s CMM-a NormHS %v, recomputed %v", mix.Name, got.NormHS, hs)
	r.check(relClose(got.NormWS, ws), "fig13-quick: %s CMM-a NormWS %v, recomputed %v", mix.Name, got.NormWS, ws)
	return l, len(mix.Specs) + 2, nil
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// soloIPC is one benchmark's IPC running alone on a one-core machine with
// its prefetchers on, as the sweep's alone-IPC runs measure it.
func soloIPC(o experiments.Options, spec workload.Spec) (float64, error) {
	cfg := o.Sim
	cfg.Topology = sim.Topology{}
	sys, err := sim.New(cfg, []workload.Spec{spec}, o.BaseSeed)
	if err != nil {
		return 0, err
	}
	if err := sys.Bank().Write(0, msr.MiscFeatureControl, 0); err != nil {
		return 0, err
	}
	sys.Run(o.SoloWarmCycles)
	before := sys.PMU(0).Snapshot()
	sys.Run(o.SoloMeasureCycles)
	return ipcs([]pmu.Snapshot{before}, []pmu.Snapshot{sys.PMU(0).Snapshot()})[0], nil
}

// controlledIPC runs one mix under a policy for the sweep's warm and
// measured epochs and returns per-core IPC over the measured epochs. The
// controller drives the machine through a timedTarget, and l accumulates
// what it measured.
func controlledIPC(o experiments.Options, mix mixes.Mix, p cmm.Policy, seed int64, tr *tracer, parent int, l *controllerLayers) ([]float64, error) {
	sys, err := sim.New(o.Sim, mix.Specs, seed)
	if err != nil {
		return nil, err
	}
	tgt := &timedTarget{SimTarget: cmm.NewSimTarget(sys), tr: tr}
	ctrl, err := cmm.NewController(o.CMM, tgt, p)
	if err != nil {
		return nil, err
	}
	sim0 := readSimCounters(sys)
	id := tr.begin("cmm.RunEpochs "+p.Name(), parent)
	tgt.parent = id
	start := time.Now()
	if err := ctrl.RunEpochs(o.WarmEpochs); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	before := snapshots(sys)
	start = time.Now()
	if err := ctrl.RunEpochs(o.MeasureEpochs); err != nil {
		return nil, err
	}
	wall += time.Since(start)
	tr.end(id)
	after := snapshots(sys)
	exec, prof := ctrl.Overhead()
	l.epochs += o.WarmEpochs + o.MeasureEpochs
	l.wall += wall
	l.target = l.target.add(tgt.c)
	l.sim = l.sim.add(readSimCounters(sys).sub(sim0))
	l.execCyc += exec
	l.profCyc += prof
	l.sampled += tgt.c.runCalls - int64(o.WarmEpochs+o.MeasureEpochs)
	return ipcs(before, after), nil
}
