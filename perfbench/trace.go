package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/faultinject"
	"cmm/internal/pmu"
	"cmm/internal/telemetry"
)

// span is one timed call across a layer boundary, recorded by one of the
// benchmark's wrappers. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so wrappers can share one code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Read the clock under the lock so spans are stored in start order.
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover. Children of one parent may overlap (concurrent
// workers), so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		cur0, cur1 := int64(-1), int64(-1)
		// Spans are appended in start order, so each child list is sorted.
		for _, c := range children[s.ID] {
			if c.End < 0 {
				continue
			}
			if c.Start > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = c.Start, c.End
			} else if c.End > cur1 {
				cur1 = c.End
			}
		}
		covered += cur1 - cur0
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// opStat counts and times one kind of wrapped call.
type opStat struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (o *opStat) add(d time.Duration) {
	o.n.Add(1)
	o.ns.Add(d.Nanoseconds())
}

// fsCounts is a snapshot of a timedFS's counters.
type fsCounts struct {
	ops, reads, writes              int64
	opNs, readNs, writeNs, renameNs int64
	bytesWritten                    int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		ops: a.ops - b.ops, reads: a.reads - b.reads, writes: a.writes - b.writes,
		opNs: a.opNs - b.opNs, readNs: a.readNs - b.readNs, writeNs: a.writeNs - b.writeNs, renameNs: a.renameNs - b.renameNs,
		bytesWritten: a.bytesWritten - b.bytesWritten,
	}
}

// timedFS wraps the store's file-system seam, counting and timing every
// operation and recording each as a span under the current parent.
type timedFS struct {
	inner  faultinject.FS
	tr     *tracer
	prefix string
	parent atomic.Int64

	all, read, write, rename opStat
	bytesWritten             atomic.Int64
}

func newTimedFS(tr *tracer, prefix string) *timedFS {
	return &timedFS{inner: faultinject.OS{}, tr: tr, prefix: prefix}
}

func (f *timedFS) counts() fsCounts {
	return fsCounts{
		ops: f.all.n.Load(), reads: f.read.n.Load(), writes: f.write.n.Load(),
		opNs: f.all.ns.Load(), readNs: f.read.ns.Load(), writeNs: f.write.ns.Load(), renameNs: f.rename.ns.Load(),
		bytesWritten: f.bytesWritten.Load(),
	}
}

// timed runs one operation under a span; kind, when non-nil, gets the
// operation's time as well as the all-operations counter.
func (f *timedFS) timed(name string, kind *opStat, op func() error) error {
	id := f.tr.begin(f.prefix+name, int(f.parent.Load()))
	start := time.Now()
	err := op()
	d := time.Since(start)
	f.tr.end(id)
	f.all.add(d)
	if kind != nil {
		kind.add(d)
	}
	return err
}

func (f *timedFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.timed("MkdirAll", nil, func() error { return f.inner.MkdirAll(path, perm) })
}

func (f *timedFS) ReadFile(name string) (data []byte, err error) {
	err = f.timed("ReadFile", &f.read, func() error { data, err = f.inner.ReadFile(name); return err })
	return data, err
}

func (f *timedFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f.bytesWritten.Add(int64(len(data)))
	return f.timed("WriteFile", &f.write, func() error { return f.inner.WriteFile(name, data, perm) })
}

func (f *timedFS) CreateExclusive(name string, data []byte, perm fs.FileMode) error {
	f.bytesWritten.Add(int64(len(data)))
	return f.timed("CreateExclusive", &f.write, func() error { return f.inner.CreateExclusive(name, data, perm) })
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	return f.timed("Rename", &f.rename, func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *timedFS) Remove(name string) error {
	return f.timed("Remove", nil, func() error { return f.inner.Remove(name) })
}

func (f *timedFS) ReadDir(name string) (ents []fs.DirEntry, err error) {
	err = f.timed("ReadDir", nil, func() error { ents, err = f.inner.ReadDir(name); return err })
	return ents, err
}

func (f *timedFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.timed("Chtimes", nil, func() error { return f.inner.Chtimes(name, atime, mtime) })
}

func (f *timedFS) WalkDir(root string, fn fs.WalkDirFunc) error {
	return f.timed("WalkDir", nil, func() error { return f.inner.WalkDir(root, fn) })
}

// targetCounts is a snapshot of a timedTarget's counters.
type targetCounts struct {
	runCalls, runNs, targetNs, pmuReads, msrWrites int64
}

func (a targetCounts) sub(b targetCounts) targetCounts {
	return targetCounts{a.runCalls - b.runCalls, a.runNs - b.runNs, a.targetNs - b.targetNs,
		a.pmuReads - b.pmuReads, a.msrWrites - b.msrWrites}
}

func (a targetCounts) add(b targetCounts) targetCounts {
	return targetCounts{a.runCalls + b.runCalls, a.runNs + b.runNs, a.targetNs + b.targetNs,
		a.pmuReads + b.pmuReads, a.msrWrites + b.msrWrites}
}

// timedTarget wraps the simulator's cmm.Target: it times every call the
// controller and its policy make into the machine, records RunCycles as
// spans under the current epoch span, and counts PMU reads and MSR writes.
// It also forwards the topology capability, so decisions keep their node
// annotations. Not safe for concurrent use, like the machine it wraps.
type timedTarget struct {
	*cmm.SimTarget
	tr     *tracer
	parent int
	c      targetCounts
}

func (t *timedTarget) RunCycles(n uint64) {
	id := t.tr.begin("sim.RunCycles", t.parent)
	start := time.Now()
	t.SimTarget.RunCycles(n)
	d := time.Since(start).Nanoseconds()
	t.tr.end(id)
	t.c.runCalls++
	t.c.runNs += d
	t.c.targetNs += d
}

func (t *timedTarget) ReadPMU(cpu int) pmu.Snapshot {
	start := time.Now()
	s := t.SimTarget.ReadPMU(cpu)
	t.c.targetNs += time.Since(start).Nanoseconds()
	t.c.pmuReads++
	return s
}

func (t *timedTarget) WriteMSR(cpu int, reg uint32, v uint64) error {
	start := time.Now()
	err := t.SimTarget.WriteMSR(cpu, reg, v)
	t.c.targetNs += time.Since(start).Nanoseconds()
	t.c.msrWrites++
	return err
}

func (t *timedTarget) ReadMSR(cpu int, reg uint32) (uint64, error) {
	start := time.Now()
	v, err := t.SimTarget.ReadMSR(cpu, reg)
	t.c.targetNs += time.Since(start).Nanoseconds()
	return v, err
}

// eventSink counts telemetry events and records each as an instant span.
type eventSink struct {
	tr     *tracer
	parent atomic.Int64
	n      atomic.Int64
}

func (s *eventSink) Emit(e telemetry.Event) {
	s.n.Add(1)
	s.tr.end(s.tr.begin("telemetry."+e.Type, int(s.parent.Load())))
}

// profile is a CPU profile of the traced pass only. Each start begins a new
// profile; the package shares sum their samples.
type profile struct {
	bufs []*bytes.Buffer
	on   bool
}

func (p *profile) start() error {
	b := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(b); err != nil {
		return err
	}
	p.bufs = append(p.bufs, b)
	p.on = true
	return nil
}

func (p *profile) stop() {
	if p.on {
		pprof.StopCPUProfile()
		p.on = false
	}
}

// profPackages are the packages whose share of CPU-profile samples the
// traced run reports, attributed by each sample's innermost frame.
var profPackages = []string{"cache", "prefetch", "cpu", "mem", "sim", "workload", "cmm",
	"kmeans", "experiments", "runstore", "jobstore", "server", "runtime"}

// packageShares reads the profile and returns each package's share of the
// samples; frames outside profPackages count as "other".
func (p *profile) packageShares() (map[string]float64, error) {
	counts := map[string]int64{}
	total := int64(0)
	for _, b := range p.bufs {
		samples, err := leafFunctions(b.Bytes())
		if err != nil {
			return nil, err
		}
		for fn, n := range samples {
			counts[packageOf(fn)] += n
			total += n
		}
	}
	out := map[string]float64{}
	for _, pkg := range append(profPackages, "other") {
		if total > 0 {
			out[pkg] = float64(counts[pkg]) / float64(total)
		} else {
			out[pkg] = 0
		}
	}
	return out, nil
}

// packageOf maps a function symbol to one of profPackages or "other".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") ||
		strings.HasPrefix(fn, "internal/runtime") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "cmm/internal/")
	if !ok {
		return "other"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, p := range profPackages {
		if p == pkg {
			return pkg
		}
	}
	return "other"
}

// leafFunctions decodes a gzipped pprof protobuf profile and returns, per
// innermost function name, the number of samples. Only the fields needed
// for that are decoded: sample (2), location (4), function (5) and the
// string table (6).
func leafFunctions(gz []byte) (map[string]int64, error) {
	if len(gz) == 0 {
		return map[string]int64{}, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.loc]]
		name := "?"
		if idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that may be packed (b set) or
// not (v set).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (b == nil for
// varints). Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// memSnap is the Go runtime's allocation and GC counters at one instant.
type memSnap struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC}
}

// layerTail reports the runtime metrics shared by every traced run: Go
// allocation and GC over the traced pass, the profile's package shares, and
// the tracing overhead; it then writes the span file.
func layerTail(rc runConfig, r *report, tr *tracer, prof *profile, m0, m1 memSnap, overheadPct float64) error {
	r.perLayer("go.alloc_mb", "MB", float64(m1.alloc-m0.alloc)/(1<<20))
	r.perLayer("go.gc_cycles", "count", float64(m1.gcs-m0.gcs))
	shares, err := prof.packageShares()
	if err != nil {
		return err
	}
	for _, pkg := range profPackages {
		r.perLayer("prof."+pkg+"_share", "ratio", shares[pkg])
	}
	r.perLayer("trace.overhead_pct", "%", overheadPct)
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", rc.outDir, rc.workload, rc.seed)
	if err := tr.write(path); err != nil {
		return err
	}
	self := tr.selfTimes()
	r.note("trace: %d span names, written to %s; self time per span name:", len(self), path)
	for _, name := range sortedKeys(self) {
		r.note("  self %-40s %12.3f ms", name, float64(self[name].Nanoseconds())/1e6)
	}
	return nil
}
