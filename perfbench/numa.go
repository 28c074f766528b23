package main

import (
	"reflect"
	"runtime"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// The numa64-cbp workload: one single-threaded controller on a 64-core,
// 8-node machine running a many-core mix under CP+BW+PT, with the reduced
// epoch windows of the geometry benches. It bypasses the experiment
// engine, the stores and the server.
const (
	numaNodes = 8
	numaCores = 64
	// The machine and controller build is timed in numaSetupBatches
	// batches of numaSetupReps.
	numaSetupBatches = 5
	numaSetupReps    = 5
	// numaPasses is how many times a run repeats the whole workload, each
	// time on a freshly built machine. The passes do exactly the same
	// simulated work, so each epoch's time is taken as its median over the
	// passes: a pass that the host slows for a few seconds does not move
	// the figures.
	numaPasses      = 3
	numaWarm        = 2 // epochs before the timed phase
	numaEpochWindow = 400_000
	numaSampleWin   = 40_000
	// numaMixBase and numaSimSeed fix this workload's input. How often
	// CP+BW+PT re-profiles depends on the generators' streams: the median
	// epoch took 1.36 s on one simulation seed and 1.85 s on another, each
	// reproducible, so a seed-dependent input would measure the seed, not
	// the code.
	numaMixBase = 1
	numaSimSeed = 1
)

func numaConfig() (sim.Config, cmm.Config) {
	ccfg := cmm.DefaultConfig()
	ccfg.ExecutionEpoch = numaEpochWindow
	ccfg.SamplingInterval = numaSampleWin
	return sim.NUMAConfig(numaNodes), ccfg
}

// numaCycles is how many whole MBA refresh cycles the timed phase runs, one
// per 6 s of --seconds (a cycle takes 6–9 s on a 2-CPU container). It
// depends on --seconds only, never on elapsed time, so every run times the
// same simulated epochs.
func numaCycles(seconds int) int {
	return max(1, (seconds+3)/6)
}

// numaRig is one machine and its controller. tgt is nil on untraced rigs,
// which drive the simulator's target directly.
type numaRig struct {
	sys  *sim.System
	tgt  *timedTarget
	ctrl *cmm.Controller
}

func buildNUMA(mix mixes.Mix, seed int64, traced bool) (*numaRig, error) {
	scfg, ccfg := numaConfig()
	sys, err := sim.New(scfg, mix.Specs, seed)
	if err != nil {
		return nil, err
	}
	rig := &numaRig{sys: sys}
	var t cmm.Target = cmm.NewSimTarget(sys)
	if traced {
		rig.tgt = &timedTarget{SimTarget: cmm.NewSimTarget(sys)}
		t = rig.tgt
	}
	rig.ctrl, err = cmm.NewController(ccfg, t, &cmm.CPBWPT{})
	return rig, err
}

// numaPass is one warm-up plus timed phase on a fresh rig. It keeps what
// the run reports and checks, not the rig itself. Host times are the
// process's CPU time.
type numaPass struct {
	warmUp     time.Duration // the first numaWarm epochs of a fresh rig
	epochTimes []float64     // ms, timed epochs
	epochWall  []float64     // ms, timed epochs, wall clock
	instr      uint64
	hmIPC      float64
	decisions  []cmm.Decision
	endPMU     []pmu.Snapshot
	layers     controllerLayers
}

// runNUMAPass warms the rig, then times cycles whole MBA refresh cycles,
// checking every decision as it is taken. Each timed cycle holds exactly
// one bandwidth re-profiling epoch, so every run times the same mix of
// profiling and reuse epochs.
func runNUMAPass(rig *numaRig, cycles int, tr *tracer, sink *eventSink, r *report) (numaPass, error) {
	var p numaPass
	refresh := rig.ctrl.Config().MBARefreshEpochs
	cpu0 := cpuNow()
	if err := rig.ctrl.RunEpochs(numaWarm); err != nil {
		return p, err
	}
	p.warmUp = cpuNow() - cpu0

	if rig.tgt != nil {
		rig.tgt.tr = tr
		rig.ctrl.SetSink(sink)
	}
	before := snapshots(rig.sys)
	simBefore := readSimCounters(rig.sys)
	exec0, prof0 := rig.ctrl.Overhead()
	var tgt0 targetCounts
	if rig.tgt != nil {
		tgt0 = rig.tgt.c
	}
	var wall time.Duration
	for e := 0; e < cycles*refresh; e++ {
		id := tr.begin("cmm.epoch", 0)
		if rig.tgt != nil {
			rig.tgt.parent = id
		}
		if sink != nil {
			sink.parent.Store(int64(id))
		}
		start, cpu0 := time.Now(), cpuNow()
		if err := rig.ctrl.RunEpochs(1); err != nil {
			return p, err
		}
		cpu, d := cpuNow()-cpu0, time.Since(start)
		tr.end(id)
		wall += d
		p.epochTimes = append(p.epochTimes, float64(cpu.Nanoseconds())/1e6)
		p.epochWall = append(p.epochWall, float64(d.Nanoseconds())/1e6)
		checkNUMADecision(rig, r)
	}
	p.endPMU = snapshots(rig.sys)
	per := ipcs(before, p.endPMU)
	for c, v := range per {
		r.check(v > 0, "numa64-cbp: core %d retired no instructions in the timed epochs", c)
		p.instr += p.endPMU[c].Value(pmu.Instructions) - before[c].Value(pmu.Instructions)
	}
	p.hmIPC = harmonicMean(per)
	p.decisions = rig.ctrl.Decisions()
	checkConservation(rig.sys, r)

	exec1, prof1 := rig.ctrl.Overhead()
	p.layers = controllerLayers{
		epochs:  cycles * refresh,
		wall:    wall,
		sim:     readSimCounters(rig.sys).sub(simBefore),
		execCyc: exec1 - exec0,
		profCyc: prof1 - prof0,
	}
	if rig.tgt != nil {
		p.layers.target = rig.tgt.c.sub(tgt0)
		p.layers.sampled = p.layers.target.runCalls - int64(p.layers.epochs)
	}
	return p, nil
}

// checkNUMADecision checks the controller's latest decision and the CAT
// state it programmed.
func checkNUMADecision(rig *numaRig, r *report) {
	dec := rig.ctrl.LastDecision()
	agg := map[int]bool{}
	for _, c := range dec.Detection.Agg {
		agg[c] = true
	}
	for _, c := range dec.Disabled {
		r.check(agg[c], "numa64-cbp: throttled core %d is not in the Agg set %v", c, dec.Detection.Agg)
	}
	for _, c := range dec.MBAThrottled {
		r.check(agg[c], "numa64-cbp: MBA-throttled core %d is not in the Agg set", c)
	}
	sum := 0
	for _, n := range dec.NodeAgg {
		sum += n
	}
	r.check(len(dec.NodeAgg) == numaNodes && sum == len(dec.Detection.Agg),
		"numa64-cbp: per-node Agg counts %v do not sum to |Agg| = %d", dec.NodeAgg, len(dec.Detection.Agg))
	if dec.Plan != nil {
		for clos, m := range dec.Plan.Masks {
			r.check(contiguous(m), "numa64-cbp: plan CLOS %d mask %#x is empty or not contiguous", clos, m)
		}
	}
	for c := 0; c < rig.sys.NumCores(); c++ {
		m, err := rig.sys.CAT().EffectiveMask(c)
		r.check(err == nil && contiguous(m), "numa64-cbp: core %d CAT mask %#x (%v) is empty or not contiguous", c, m, err)
	}
}

// checkConservation checks that every byte the memory controllers read
// was an LLC miss: demand plus prefetch bytes over all node controllers
// equal line size times LLC misses over all slices.
func checkConservation(sys *sim.System, r *report) {
	c := readSimCounters(sys)
	line := uint64(sys.Config().LLC.LineBytes)
	r.check(c.memDemand+c.memPrefetch == line*c.llcMiss,
		"numa64-cbp: memory read %d bytes but the LLC slices missed %d lines of %d bytes",
		c.memDemand+c.memPrefetch, c.llcMiss, line)
}

func harmonicMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

func runNUMA(rc runConfig, r *report) error {
	ms, err := mixes.ManyCoreFamily(numaCores, numaMixBase, 1)
	if err != nil {
		return err
	}
	mix := ms[0]
	cycles := numaCycles(rc.seconds)

	var rig *numaRig
	setup, err := batchedSetup(numaSetupBatches, numaSetupReps, func(int) (time.Duration, error) {
		rig = nil
		runtime.GC()
		cpu0 := cpuNow()
		var err error
		rig, err = buildNUMA(mix, numaSimSeed, false)
		return cpuNow() - cpu0, err
	})
	if err != nil {
		return err
	}
	var passes []numaPass
	for i := 0; i < numaPasses; i++ {
		if i > 0 {
			rig = nil
			runtime.GC()
			if rig, err = buildNUMA(mix, numaSimSeed, false); err != nil {
				return err
			}
		}
		p, err := runNUMAPass(rig, cycles, nil, nil, r)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	rig = nil
	// Determinism: every fresh machine with the same seed takes the same
	// decisions and ends with the same PMU counts on every core.
	base := passes[0]
	for i, p := range passes[1:] {
		r.check(reflect.DeepEqual(p.decisions, base.decisions),
			"numa64-cbp: pass %d took different decisions than pass 1", i+2)
		r.check(reflect.DeepEqual(p.endPMU, base.endPMU),
			"numa64-cbp: pass %d ended with different PMU counts than pass 1", i+2)
	}

	// Each epoch's time, and the warm-up's, is its median over the passes.
	epochTimes := medianOver(passes, func(p numaPass) []float64 { return p.epochTimes })
	epochWall := medianOver(passes, func(p numaPass) []float64 { return p.epochWall })
	warmUp := medianOver(passes, func(p numaPass) []float64 { return []float64{p.warmUp.Seconds()} })[0]
	timedMs := 0.0
	for _, t := range epochTimes {
		timedMs += t
	}

	_, ccfg := numaConfig()
	r.op("controller epochs (timed)", int64(numaPasses*len(epochTimes)), 0)
	r.op("controller epochs (warm-up)", int64(numaPasses*numaWarm), 0)
	r.note("mix %s, %d cores on %d nodes, %d passes of %d refresh cycles of %d epochs timed",
		mix.Name, numaCores, numaNodes, numaPasses, cycles, ccfg.MBARefreshEpochs)

	epochMs := median(epochTimes)
	r.endToEnd("setup_s", "setup_cpu_s", "s", setup)
	r.endToEnd("work_s", "warm_up_cpu_s", "s", warmUp)
	r.endToEnd("op_ms", "epoch_cpu_ms", "ms", epochMs)
	r.endToEnd("rate_per_s", "sim_instr_per_cpu_s", "1/s", float64(base.instr)/(timedMs/1e3))
	r.endToEnd("quality", "hm_ipc", "ratio", base.hmIPC)
	r.named("epoch_ms", "ms", median(epochWall))
	r.named("epoch_p95_ms", "ms", percentile(epochWall, 95))
	if !rc.trace {
		return nil
	}

	// Traced pass: a wrapped rig, warmed the same way, timing the same
	// number of epochs with spans and the CPU profile on.
	runtime.GC()
	traced, err := buildNUMA(mix, numaSimSeed, true)
	if err != nil {
		return err
	}
	tr := newTracer()
	sink := &eventSink{tr: tr}
	prof := &profile{}
	m0 := readMem()
	if err := prof.start(); err != nil {
		return err
	}
	tp, err := runNUMAPass(traced, cycles, tr, sink, r)
	prof.stop()
	m1 := readMem()
	if err != nil {
		return err
	}
	r.check(reflect.DeepEqual(tp.decisions, base.decisions),
		"numa64-cbp: traced run took different decisions than the untraced one")
	var lv layerValues
	lv.ctl = tp.layers
	lv.events = sink.n.Load()
	emitLayers(r, lv)
	overhead := 100 * (median(tp.epochTimes)/epochMs - 1)
	return layerTail(rc, r, tr, prof, m0, m1, overhead)
}

// medianOver returns, for each index of the series that f picks from every
// pass, the median over the passes.
func medianOver(passes []numaPass, f func(numaPass) []float64) []float64 {
	out := make([]float64, len(f(passes[0])))
	for i := range out {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p)[i])
		}
		out[i] = median(xs)
	}
	return out
}
