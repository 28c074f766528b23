package main

import (
	"math/bits"
	"time"

	"cmm/internal/mem"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// simCounters sums one machine's cache, prefetch and memory counters.
type simCounters struct {
	instr                                uint64
	l1Miss, l2Miss                       uint64
	llcAcc, llcMiss, llcEvict, llcLate   uint64
	pfIssued, pfUseful, pfUnused         uint64
	memDemand, memPrefetch, memWriteback uint64 // bytes
}

func readSimCounters(sys *sim.System) simCounters {
	var c simCounters
	for i := 0; i < sys.NumCores(); i++ {
		core := sys.Core(i)
		s := core.PMU().Snapshot()
		c.instr += s.Value(pmu.Instructions)
		l1, l2 := core.L1().Stats(), core.L2().Stats()
		c.l1Miss += l1.Misses
		c.l2Miss += l2.Misses
		// Prefetchers fill the private levels; a prefetched line there is
		// either hit by a demand access or evicted untouched.
		c.pfUseful += l1.PrefetchHitsUsed + l2.PrefetchHitsUsed
		c.pfUnused += l1.PrefetchedEvictedUnused + l2.PrefetchedEvictedUnused
		pf := core.Prefetchers().Stats()
		c.pfIssued += pf.L1Issued() + pf.L2Issued()
	}
	for nd := 0; nd < sys.NumNodes(); nd++ {
		llc := sys.LLCNode(nd).Stats()
		c.llcAcc += llc.Hits + llc.Misses
		c.llcMiss += llc.Misses
		c.llcEvict += llc.Evictions
		c.llcLate += llc.LateHits
		m := sys.MemoryNode(nd)
		for core := 0; core < sys.NumCores(); core++ {
			c.memDemand += m.Bytes(core, mem.Demand)
			c.memPrefetch += m.Bytes(core, mem.Prefetch)
			c.memWriteback += m.Bytes(core, mem.Writeback)
		}
	}
	return c
}

func (a simCounters) sub(b simCounters) simCounters {
	return simCounters{
		a.instr - b.instr,
		a.l1Miss - b.l1Miss, a.l2Miss - b.l2Miss,
		a.llcAcc - b.llcAcc, a.llcMiss - b.llcMiss, a.llcEvict - b.llcEvict, a.llcLate - b.llcLate,
		a.pfIssued - b.pfIssued, a.pfUseful - b.pfUseful, a.pfUnused - b.pfUnused,
		a.memDemand - b.memDemand, a.memPrefetch - b.memPrefetch, a.memWriteback - b.memWriteback,
	}
}

func (a simCounters) add(b simCounters) simCounters {
	return simCounters{
		a.instr + b.instr,
		a.l1Miss + b.l1Miss, a.l2Miss + b.l2Miss,
		a.llcAcc + b.llcAcc, a.llcMiss + b.llcMiss, a.llcEvict + b.llcEvict, a.llcLate + b.llcLate,
		a.pfIssued + b.pfIssued, a.pfUseful + b.pfUseful, a.pfUnused + b.pfUnused,
		a.memDemand + b.memDemand, a.memPrefetch + b.memPrefetch, a.memWriteback + b.memWriteback,
	}
}

// controllerLayers is what the benchmark measured around a set of
// controller epochs driven through a timedTarget.
type controllerLayers struct {
	epochs  int
	wall    time.Duration // host time inside RunEpochs
	target  targetCounts
	sim     simCounters
	execCyc uint64 // simulated execution-epoch cycles
	profCyc uint64 // simulated profiling cycles
	sampled int64  // sampling intervals (RunCycles calls beyond one per epoch)
}

// reportSimLayers emits the sim, cache, prefetch, mem and cmm per-layer
// metrics, all per controller epoch. Zero epochs report zero work.
func reportSimLayers(r *report, l controllerLayers) {
	per := func(v float64) float64 {
		if l.epochs == 0 {
			return 0
		}
		return v / float64(l.epochs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := l.sim
	r.perLayer("sim.run_ms_per_epoch", "ms", per(float64(l.target.runNs)/1e6))
	r.perLayer("sim.ns_per_instr", "ns", ratio(float64(l.target.runNs), float64(s.instr)))
	r.perLayer("sim.instr_per_epoch", "count", per(float64(s.instr)))
	r.perLayer("cache.l1_misses", "count", per(float64(s.l1Miss)))
	r.perLayer("cache.l2_misses", "count", per(float64(s.l2Miss)))
	r.perLayer("cache.llc_accesses", "count", per(float64(s.llcAcc)))
	r.perLayer("cache.llc_misses", "count", per(float64(s.llcMiss)))
	r.perLayer("cache.llc_evictions", "count", per(float64(s.llcEvict)))
	r.perLayer("cache.llc_late_hits", "count", per(float64(s.llcLate)))
	r.perLayer("prefetch.issued", "count", per(float64(s.pfIssued)))
	r.perLayer("prefetch.useful", "count", per(float64(s.pfUseful)))
	r.perLayer("prefetch.evicted_unused", "count", per(float64(s.pfUnused)))
	r.perLayer("prefetch.accuracy", "ratio", ratio(float64(s.pfUseful), float64(s.pfUseful+s.pfUnused)))
	r.perLayer("mem.read_mb", "MB", per(float64(s.memDemand+s.memPrefetch)/(1<<20)))
	r.perLayer("mem.writeback_mb", "MB", per(float64(s.memWriteback)/(1<<20)))
	self := l.wall.Nanoseconds() - l.target.targetNs
	r.perLayer("cmm.self_us_per_epoch", "us", per(float64(self)/1e3))
	r.perLayer("cmm.host_share", "ratio", ratio(float64(self), float64(l.wall.Nanoseconds())))
	r.perLayer("cmm.target_us_per_epoch", "us", per(float64(l.target.targetNs)/1e3))
	r.perLayer("cmm.pmu_reads_per_epoch", "count", per(float64(l.target.pmuReads)))
	r.perLayer("cmm.msr_writes_per_epoch", "count", per(float64(l.target.msrWrites)))
	r.perLayer("cmm.sampled_intervals_per_epoch", "count", per(float64(l.sampled)))
	r.perLayer("cmm.profiling_share", "ratio", ratio(float64(l.profCyc), float64(l.execCyc+l.profCyc)))
}

// contiguous reports whether mask is one non-empty run of set bits.
func contiguous(mask uint64) bool {
	if mask == 0 {
		return false
	}
	m := mask >> uint(bits.TrailingZeros64(mask))
	return m&(m+1) == 0
}

// harmonicSpeedup is n / Σ alone_i/together_i, computed here rather than
// by the program so the benchmark checks the program's arithmetic.
func harmonicSpeedup(alone, together []float64) float64 {
	sum := 0.0
	for i := range alone {
		sum += alone[i] / together[i]
	}
	return float64(len(alone)) / sum
}

// ipcs returns per-core IPC between two sets of snapshots.
func ipcs(before, after []pmu.Snapshot) []float64 {
	out := make([]float64, len(before))
	for i := range before {
		in := after[i].Value(pmu.Instructions) - before[i].Value(pmu.Instructions)
		cy := after[i].Value(pmu.Cycles) - before[i].Value(pmu.Cycles)
		if cy > 0 {
			out[i] = float64(in) / float64(cy)
		}
	}
	return out
}

func snapshots(sys *sim.System) []pmu.Snapshot {
	out := make([]pmu.Snapshot, sys.NumCores())
	for i := range out {
		out[i] = sys.PMU(i).Snapshot()
	}
	return out
}

// layerValues holds every per-layer measurement. A workload fills what its
// wrappers observed; a layer it does not drive through them reports zero.
type layerValues struct {
	ctl controllerLayers

	// experiments: from the Progress callback of a benchmark-driven sweep.
	soloS, runsS, tailS float64
	simRuns             int64
	// cmm, from Comparison.Telemetry of the sweep's CMM-a runs.
	cmmaProfShare float64
	cmmaSampled   int64

	// runstore: puts over the workload's write phase; gets per operation.
	puts          int64
	putUs         float64
	bytesWritten  int64
	getsPerOp     float64
	getUs         float64
	fsOpsPerOp    float64
	jobFsOpsPerOp float64
	jobFsMsPerOp  float64

	// server
	submitMs, queueMs, runMs, publishMs float64
	hitRatio, notModified, metricsMs    float64

	events int64
}

// emitLayers reports every per-layer metric except the runtime ones
// layerTail adds.
func emitLayers(r *report, v layerValues) {
	reportSimLayers(r, v.ctl)
	r.perLayer("cmm.profiling_share_cmm-a", "ratio", v.cmmaProfShare)
	r.perLayer("cmm.sampled_intervals", "count", float64(v.cmmaSampled))
	r.perLayer("experiments.solo_s", "s", v.soloS)
	r.perLayer("experiments.runs_s", "s", v.runsS)
	r.perLayer("experiments.tail_s", "s", v.tailS)
	r.perLayer("experiments.sim_runs", "count", float64(v.simRuns))
	r.perLayer("runstore.puts", "count", float64(v.puts))
	r.perLayer("runstore.put_us", "us", v.putUs)
	r.perLayer("runstore.bytes_written", "B", float64(v.bytesWritten))
	r.perLayer("runstore.gets", "count", v.getsPerOp)
	r.perLayer("runstore.get_us", "us", v.getUs)
	r.perLayer("runstore.fs_ops", "count", v.fsOpsPerOp)
	r.perLayer("jobstore.fs_ops_per_job", "count", v.jobFsOpsPerOp)
	r.perLayer("jobstore.fs_ms_per_job", "ms", v.jobFsMsPerOp)
	r.perLayer("server.submit_ms", "ms", v.submitMs)
	r.perLayer("server.queue_ms", "ms", v.queueMs)
	r.perLayer("server.run_ms", "ms", v.runMs)
	r.perLayer("server.publish_ms", "ms", v.publishMs)
	r.perLayer("server.readcache_hit_ratio", "ratio", v.hitRatio)
	r.perLayer("server.not_modified", "count", v.notModified)
	r.perLayer("server.metrics_ms", "ms", v.metricsMs)
	r.perLayer("telemetry.events", "count", float64(v.events))
}
