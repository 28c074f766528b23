// Command perfbench is the repository's benchmark. One invocation runs one
// workload, checks the program's outputs, prints every metric by name with
// its unit plus the workload's operation accounting, and ends with one JSON
// result line:
//
//	bash perfbench/run.sh --workload fig13-quick --seed 1 --seconds 5 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a separate traced pass (spans from the
// benchmark's own wrappers, a CPU profile of the traced pass only, and the
// traced-vs-untraced overhead). --repeat N re-runs the workload N times on
// consecutive seeds in child processes and prints each metric's median and
// quartiles. README.md documents the workloads and every metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type namedMetric struct {
	name string
	// alias is the workload's own name for an end-to-end metric.
	alias string
	metric
}

// report collects one run's metrics, operation accounting and failed checks.
type report struct {
	e2e, layer []namedMetric
	// detail holds metrics that are printed but are not in the JSON line.
	detail    []namedMetric
	ops       []string
	attempted int64
	failed    int64
	problems  []string
}

// endToEnd records an end-to-end metric; alias is what the workload calls
// it (sweep_s, epoch_ms, job_cpu_ms, ...).
func (r *report) endToEnd(name, alias, unit string, v float64) {
	r.e2e = append(r.e2e, namedMetric{name, alias, metric{v, unit}})
}

func (r *report) perLayer(name, unit string, v float64) {
	r.layer = append(r.layer, namedMetric{name, name, metric{v, unit}})
}

func (r *report) named(name, unit string, v float64) {
	r.detail = append(r.detail, namedMetric{name, name, metric{v, unit}})
}

// op records one line of operation accounting and adds it to the totals.
func (r *report) op(name string, attempted, failed int64) {
	r.ops = append(r.ops, fmt.Sprintf("%s: attempted %d, failed %d", name, attempted, failed))
	r.attempted += attempted
	r.failed += failed
}

// note records accounting that is not an attempted operation.
func (r *report) note(format string, args ...any) {
	r.ops = append(r.ops, fmt.Sprintf(format, args...))
}

// check records a failed output check; it returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string
	// outDir keeps the span files of traced runs.
	outDir string
	inputs inputs
}

// inputs are the workload inputs derived from --seed. The program never sees
// the seed itself, only what is generated from it.
type inputs struct {
	seed int64
	// simSeed is the simulation seed: it seeds every simulated machine's
	// workload generators (experiments.Options.Seeds and sim.New).
	simSeed int64
}

// deriveInputs derives the inputs from the seed. The mixes themselves stay
// at the options' base seed: which benchmarks a mix draws sets how much the
// simulator and the controller have to do, and across mix seeds the cold
// sweep took 25.0–32.9 s and a many-core epoch 1.5–2.9 s, more than any
// bound allows. The seed varies the generators' reference streams instead.
func deriveInputs(seed int64) inputs {
	in := inputs{seed: seed}
	in.simSeed = 1 + in.rngFor("sim").Int63n(1<<20)
	return in
}

// rngFor returns the seed's independent random stream for one input, so
// adding a stream never changes another.
func (in inputs) rngFor(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", in.seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

var workloads = map[string]func(runConfig, *report) error{
	"fig13-quick": runFig13,
	"numa64-cbp":  runNUMA,
	"service":     runService,
}

func main() {
	name := flag.String("workload", "", "workload: fig13-quick, numa64-cbp or service")
	seed := flag.Int64("seed", 1, "workload seed: the simulation seed, job policy-subset order and read key order derive from it")
	seconds := flag.Int("seconds", 5, "length of the workload's time-bounded phase")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass; 0 = end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and print median and quartiles")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig13-quick|numa64-cbp|service, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*name, *seed, *seconds, *traceFlag, *repeat))
	}
	os.Exit(runOnce(run, runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}))
}

func runOnce(run func(runConfig, *report) error, rc runConfig) int {
	// Scratch space lives in the checkout: the benchmark reads and writes
	// nothing outside it.
	base, err := filepath.Abs(".perfbench")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err == nil {
		rc.dir, err = os.MkdirTemp(base, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(rc.dir)
	rc.outDir = base
	rc.inputs = deriveInputs(rc.seed)

	r := &report{}
	if err := run(rc, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	r.endToEnd("rss_mb", "rss_mb", "MB", peakRSSMB())
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", rc.workload, rc.seed, rc.seconds, rc.trace)
	for _, line := range r.ops {
		fmt.Println("  ops", line)
	}
	for _, p := range r.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	// A traced run's end-to-end figures include tracing, so it prints and
	// reports only its per-layer metrics.
	printed, reported := append(r.e2e[:len(r.e2e):len(r.e2e)], r.detail...), r.e2e
	if rc.trace {
		printed, reported = r.layer, r.layer
	}
	for _, m := range printed {
		label := m.name
		if m.alias != m.name {
			label += " (" + m.alias + ")"
		}
		fmt.Printf("  %-40s %14.6g %s\n", label, m.Value, m.Unit)
	}
	for _, m := range reported {
		res.Metrics[m.name] = m.metric
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// cpuNow is the CPU time the process has used so far, over all its
// threads (CLOCK_PROCESS_CPUTIME_ID). Every host time the benchmark reports
// end to end is a difference of two readings. The kernel leaves out of it
// the time the hypervisor runs other guests on this machine's CPUs (steal
// time) and the time the process waits for a CPU, both of which are set by
// the neighbours on a shared host, not by the program.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeatRuns runs the workload n times in child processes, seeds seed,
// seed+1, ..., and prints each metric's median, quartiles and quartile
// spread as a share of the median.
func repeatRuns(name string, seed int64, seconds, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n%s", s, err, out.String())
			return 1
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		line := fmt.Sprintf("seed %d correct %v attempted %d failed %d", s, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			line += fmt.Sprintf(" %s=%.6g", k, m.Value)
		}
		fmt.Println(line)
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
	}
	fmt.Printf("%-34s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range sortedKeys(values) {
		q := quartiles(values[k])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / math.Abs(q[1])
		}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %8.4f %s\n", k, q[0], q[1], q[2], spread, units[k])
	}
	fmt.Printf("failed share per run: %v\n", failShares)
	return 0
}

func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

// batchedSetup runs a set-up batches×reps times and returns the median over
// the batches of each batch's mean set-up time, in seconds. one times a
// single set-up and returns its CPU time; what it does outside the timed
// part (removing the previous rep, collecting garbage) is not counted. One
// set-up takes milliseconds, too little to time alone on a shared host.
func batchedSetup(batches, reps int, one func(i int) (time.Duration, error)) (float64, error) {
	var means []float64
	for b := 0; b < batches; b++ {
		var sum time.Duration
		for i := 0; i < reps; i++ {
			d, err := one(b*reps + i)
			if err != nil {
				return 0, err
			}
			sum += d
		}
		means = append(means, sum.Seconds()/float64(reps))
	}
	return median(means), nil
}

// median returns the middle value of xs (mean of the middle two for even
// lengths); 0 for none.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}
