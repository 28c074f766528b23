package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmm/internal/experiments"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/server"
)

// The service workload: an in-process job server with a durable job store
// and a run store, one job worker, served over loopback HTTP. Set-up fills
// the store with one mix per category under every policy; the measured
// traffic is comparison jobs that are all store hits, then a closed loop of
// result reads followed by a closed loop of revalidations.
const (
	serviceSetupReps = 3
	serviceConns     = 2
	// The read model is cmmload's (cmd/cmmload): reads pick keys by a Zipf
	// law with s = serviceZipfS, and a revalidation phase, every read
	// carrying a matching If-None-Match, follows the plain read phase.
	serviceZipfS = 1.1
	// servicePopularity seeds the fixed popularity order of the results.
	servicePopularity = 1
	// serviceRevalidations is how many revalidations a run makes per second
	// of --seconds. They are a fixed count, so that their host time is a
	// figure of its own. cmmload's revalidation phase lasts half as long as
	// its warm phase; at --seconds 5 on a 2-CPU host these took 0.5–1.5 s
	// against the plain read phase's 3.3 s.
	serviceRevalidations = 4000
	// serviceScrapes is how many /metrics scrapes a traced run times, one
	// after another after the read phases.
	serviceScrapes = 20
	servicePreset  = "bench"
)

// servicePolicies are the paper's seven policies plus the three-way CBP
// policy: 255 distinct non-empty subsets, one job each.
var servicePolicies = []string{"PT", "Dunn", "Pref-CP", "Pref-CP2", "CMM-a", "CMM-b", "CMM-c", "CP+BW+PT"}

// serviceOptions is the job preset: the quick options cut to short windows,
// since the simulator only fills the store at set-up and does no measured
// work.
func serviceOptions(rc runConfig) experiments.Options {
	o := experiments.QuickOptions()
	o.Seeds = []int64{rc.inputs.simSeed}
	o.MixesPerCategory = 1
	o.Workers = 2
	o.CMM.ExecutionEpoch = 300_000
	o.CMM.SamplingInterval = 30_000
	o.MeasureEpochs = 1
	o.SoloWarmCycles = 300_000
	o.SoloMeasureCycles = 300_000
	return o
}

// service is one running server with its HTTP listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	store  *runstore.Store
	runFS  *timedFS // nil when untraced
	jobFS  *timedFS
}

func startService(dir string, opts experiments.Options, tr *tracer, sink *eventSink) (*service, error) {
	sv := &service{served: make(chan error, 1)}
	var ropts []runstore.Option
	var jopts []jobstore.Option
	if tr != nil {
		sv.runFS = newTimedFS(tr, "runstore.fs.")
		sv.jobFS = newTimedFS(tr, "jobstore.fs.")
		ropts = append(ropts, runstore.WithFS(sv.runFS))
		jopts = append(jopts, jobstore.WithFS(sv.jobFS))
	}
	var err error
	if sv.store, err = runstore.Open(dir, ropts...); err != nil {
		return nil, err
	}
	jobs, err := jobstore.Open(filepath.Join(dir, "jobs"), jopts...)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Store: sv.store, Jobs: jobs, Workers: 1,
		Presets: map[string]experiments.Options{servicePreset: opts},
	}
	if sink != nil {
		cfg.EventSink = sink
	}
	sv.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.srv.Shutdown(context.Background())
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: sv.srv.Handler()}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// stop shuts the listener and the job service down and waits for both.
func (sv *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := sv.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// client issues the benchmark's requests, recording each as a span.
type client struct {
	hc *http.Client
	tr *tracer
}

type response struct {
	code int
	body []byte
}

func (c *client) do(name string, parent int, req *http.Request) (response, error) {
	id := c.tr.begin("http."+name, parent)
	defer c.tr.end(id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{resp.StatusCode, body}, err
}

func (c *client) get(name string, parent int, url string, header ...string) (response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return response{}, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	return c.do(name, parent, req)
}

func (c *client) post(name string, parent int, url string, body []byte) (response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(name, parent, req)
}

// jobStatus is the part of the server's job status the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Attempt    int    `json:"attempt"`
	ResultHash string `json:"result_hash"`
	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at"`
	FinishedAt string `json:"finished_at"`
}

// jobTiming is one measured job.
type jobTiming struct {
	policies            []string
	id, hash            string
	body                []byte
	latency, submit     time.Duration
	received            time.Time
	queue, run, publish time.Duration
	ok                  bool
}

// submitJob posts one comparison job and waits for its result bytes on the
// read path; the latency runs from the POST to the result's arrival.
func submitJob(c *client, sv *service, policies []string, r *report) (jobTiming, error) {
	jt := jobTiming{policies: policies}
	req, err := json.Marshal(map[string]any{"preset": servicePreset, "policies": policies})
	if err != nil {
		return jt, err
	}
	span := c.tr.begin("job", 0)
	defer c.tr.end(span)
	start := time.Now()
	resp, err := c.post("POST /v1/jobs", span, sv.url+"/v1/jobs", req)
	jt.submit = time.Since(start)
	if err != nil {
		return jt, err
	}
	var st jobStatus
	if resp.code != http.StatusAccepted || json.Unmarshal(resp.body, &st) != nil || st.ResultHash == "" {
		r.check(false, "service: POST /v1/jobs answered %d: %s", resp.code, resp.body)
		return jt, nil
	}
	res, err := c.get("GET /v1/results?wait", span, sv.url+"/v1/results/"+st.ResultHash+"?wait=60s")
	jt.received = time.Now()
	jt.latency = jt.received.Sub(start)
	if err != nil {
		return jt, err
	}
	jt.id, jt.hash, jt.body = st.ID, st.ResultHash, res.body
	jt.ok = r.check(res.code == http.StatusOK, "service: job %s result answered %d", st.ID, res.code)
	return jt, nil
}

// verifyJob checks a finished job after the timed phase: its terminal
// status, its result by id, and its scores; it also reads the job's phase
// timestamps.
func verifyJob(c *client, sv *service, jt *jobTiming, ref server.ComparisonResult, r *report) error {
	var st jobStatus
	for deadline := time.Now().Add(30 * time.Second); ; {
		sr, err := c.get("GET /v1/jobs/{id}", 0, sv.url+"/v1/jobs/"+jt.id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(sr.body, &st); err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		if st.State != server.StateQueued && st.State != server.StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	jt.ok = r.check(st.State == server.StateDone && st.Attempt == 1,
		"service: job %s ended %s on attempt %d, want done on attempt 1", st.ID, st.State, st.Attempt)
	byID, err := c.get("GET /v1/jobs/{id}/result", 0, sv.url+"/v1/jobs/"+jt.id+"/result")
	if err != nil {
		return err
	}
	r.check(byID.code == http.StatusOK && bytes.Equal(byID.body, jt.body),
		"service: /v1/jobs/%s/result is not byte-identical to /v1/results/%s", jt.id, jt.hash)
	checkJobResult(jt.body, jt.policies, ref, r)
	created, e1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, e2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, e3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if r.check(errors.Join(e1, e2, e3) == nil, "service: job %s timestamps: %v", st.ID, errors.Join(e1, e2, e3)) {
		jt.queue, jt.run, jt.publish = started.Sub(created), finished.Sub(started), jt.received.Sub(finished)
	}
	return nil
}

// checkJobResult checks that a job reports exactly the requested policies
// and that each policy's per-mix scores equal the set-up comparison's.
func checkJobResult(body []byte, policies []string, ref server.ComparisonResult, r *report) {
	var got server.ComparisonResult
	if !r.check(json.Unmarshal(body, &got) == nil, "service: job result does not parse") {
		return
	}
	r.check(reflect.DeepEqual(got.Policies, policies), "service: job reports policies %v, requested %v", got.Policies, policies)
	r.check(len(got.Results) == len(policies), "service: job has results for %d policies, requested %d", len(got.Results), len(policies))
	r.check(reflect.DeepEqual(got.Mixes, ref.Mixes), "service: job mixes differ from the set-up comparison")
	for _, p := range policies {
		r.check(reflect.DeepEqual(got.Results[p], ref.Results[p]), "service: %s scores differ from the set-up comparison", p)
	}
}

// subsets returns every non-empty subset of xs, each in xs's order.
func subsets(xs []string) [][]string {
	var out [][]string
	for m := 1; m < 1<<len(xs); m++ {
		var s []string
		for i, x := range xs {
			if m&(1<<i) != 0 {
				s = append(s, x)
			}
		}
		out = append(out, s)
	}
	return out
}

// metricValues parses a /metrics page.
func metricValues(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// servicePass is one complete service run: set-up, the job phase and the
// read phase.
type servicePass struct {
	setup            float64 // s, median
	jobs             []jobTiming
	plain, notmod    readPhase
	scrapes          []float64
	normHS           float64
	hitRatio, notMod float64
	runFS, jobFS     fsCounts
	events           int64
	mem0, mem1       memSnap
	// jobCPU, plainCPU and notmodCPU are the process's CPU time over the
	// job phase, the plain read phase and the revalidation phase.
	jobCPU, plainCPU, notmodCPU time.Duration
}

// runServicePass runs set-up and the measured traffic. With a tracer, the
// profile, the Go memory counters and the event count cover the measured
// traffic only.
func runServicePass(rc runConfig, dir string, tr *tracer, sink *eventSink, prof *profile, r *report) (servicePass, error) {
	var p servicePass
	opts := serviceOptions(rc)
	c := &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceConns + 2}, Timeout: 90 * time.Second}, tr: tr}
	defer c.hc.CloseIdleConnections()
	all, err := json.Marshal(map[string]any{"preset": servicePreset, "policies": servicePolicies})
	if err != nil {
		return p, err
	}

	// Set-up: fresh stores, the server, and the all-policy comparison that
	// fills the store, repeated; the last one serves the measured traffic.
	var sv *service
	var refBody []byte
	var refHash string
	var setups []float64
	reps := serviceSetupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return p, err
			}
		}
		start := cpuNow()
		if sv, err = startService(filepath.Join(dir, fmt.Sprintf("store%d", i)), opts, tr, sink); err != nil {
			return p, err
		}
		resp, err := c.post("POST /v1/jobs", 0, sv.url+"/v1/jobs", all)
		if err != nil {
			return p, err
		}
		var st jobStatus
		if err := json.Unmarshal(resp.body, &st); err != nil || resp.code != http.StatusAccepted {
			return p, fmt.Errorf("set-up job: %d %s", resp.code, resp.body)
		}
		res, err := c.get("GET /v1/results?wait", 0, sv.url+"/v1/results/"+st.ResultHash+"?wait=120s")
		if err != nil {
			return p, err
		}
		if res.code != http.StatusOK {
			return p, fmt.Errorf("set-up result: %d %s", res.code, res.body)
		}
		setups = append(setups, (cpuNow() - start).Seconds())
		refBody, refHash = res.body, st.ResultHash
	}
	p.setup = median(setups)
	defer sv.stop()
	var ref server.ComparisonResult
	if err := json.Unmarshal(refBody, &ref); err != nil {
		return p, fmt.Errorf("set-up result: %w", err)
	}
	for _, m := range ref.Results["CMM-a"] {
		p.normHS += m.NormHS
	}
	p.normHS /= float64(len(ref.Results["CMM-a"]))
	computes0 := sv.store.Stats().Computes
	if tr != nil {
		p.runFS, p.jobFS = sv.runFS.counts(), sv.jobFS.counts()
		p.events = -sink.n.Load()
		p.mem0 = readMem()
		if err := prof.start(); err != nil {
			return p, err
		}
		defer prof.stop()
	}

	// Job phase: every policy subset once, in seed order, one at a time.
	jobCPU0 := cpuNow()
	subs := subsets(servicePolicies)
	order := rc.inputs.rngFor("jobs").Perm(len(subs))
	bodies := map[string][]byte{refHash: refBody}
	for _, i := range order {
		jt, err := submitJob(c, sv, subs[i], r)
		if err != nil {
			return p, err
		}
		p.jobs = append(p.jobs, jt)
	}
	p.jobCPU = cpuNow() - jobCPU0
	if sv.runFS != nil {
		p.runFS, p.jobFS = sv.runFS.counts().sub(p.runFS), sv.jobFS.counts().sub(p.jobFS)
	}
	for i := range p.jobs {
		jt := &p.jobs[i]
		if !jt.ok {
			continue
		}
		if err := verifyJob(c, sv, jt, ref, r); err != nil {
			return p, err
		}
		bodies[jt.hash] = jt.body
	}
	r.check(sv.store.Stats().Computes == computes0, "service: the job phase computed %d runs, want 0",
		sv.store.Stats().Computes-computes0)

	// Read phases: serviceConns closed-loop connections over the results,
	// plain reads for two thirds of --seconds, then a fixed number of
	// revalidations. The results' popularity order is a fixed shuffle of the
	// policy subsets, so every seed reads the same mix of result sizes (one
	// to eight policies); the seed draws the requests.
	var keys []string
	for _, i := range rand.New(rand.NewSource(servicePopularity)).Perm(len(subs)) {
		if jt := p.jobs[slices.Index(order, i)]; jt.ok {
			keys = append(keys, jt.hash)
		}
	}
	before, err := c.get("GET /metrics", 0, sv.url+"/metrics")
	if err != nil {
		return p, err
	}
	phase := time.Duration(rc.seconds) * time.Second / 3
	cpu0 := cpuNow()
	p.plain = runReadPhase(c, sv, rc.inputs, keys, bodies, false, 2*phase, 0)
	p.plainCPU = cpuNow() - cpu0
	cpu0 = cpuNow()
	p.notmod = runReadPhase(c, sv, rc.inputs, keys, bodies, true, 0, serviceRevalidations*rc.seconds)
	p.notmodCPU = cpuNow() - cpu0
	if tr != nil {
		for i := 0; i < serviceScrapes; i++ {
			t0 := time.Now()
			resp, err := c.get("GET /metrics", 0, sv.url+"/metrics")
			if err == nil && resp.code != http.StatusOK {
				err = fmt.Errorf("/metrics answered %d", resp.code)
			}
			if err != nil {
				return p, err
			}
			p.scrapes = append(p.scrapes, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	after, err := c.get("GET /metrics", 0, sv.url+"/metrics")
	if err != nil {
		return p, err
	}
	m0, m1 := metricValues(before.body), metricValues(after.body)
	hits := m1["cmm_readcache_hits_total"] - m0["cmm_readcache_hits_total"]
	misses := m1["cmm_readcache_misses_total"] - m0["cmm_readcache_misses_total"]
	if hits+misses > 0 {
		p.hitRatio = hits / (hits + misses)
	}
	p.notMod = m1["cmm_read_not_modified_total"] - m0["cmm_read_not_modified_total"]
	if tr != nil {
		prof.stop()
		p.mem1 = readMem()
		p.events += sink.n.Load()
	}
	return p, nil
}

// readPhase is one closed-loop read phase.
type readPhase struct {
	ms        []float64 // latency of every read
	bad, errs int64     // wrong status or body; transport errors
	wall      time.Duration
}

// runReadPhase reads keys from serviceConns connections, each picking keys
// by a Zipf law from its own stream of the seed, for d or, when count > 0,
// until the connections have made count reads between them. With notmod
// every read carries the key's ETag and must get 304; otherwise it must get
// 200 and the key's recorded bytes.
func runReadPhase(c *client, sv *service, in inputs, keys []string, bodies map[string][]byte, notmod bool, d time.Duration, count int) readPhase {
	var p readPhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for conn := 0; conn < serviceConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			z := rand.NewZipf(in.rngFor(fmt.Sprintf("reads/%v/%d", notmod, conn)), serviceZipfS, 1, uint64(len(keys)-1))
			var lat []float64
			var bad, errs int64
			more := func(n int) bool { return time.Now().Before(deadline) }
			if count > 0 {
				share := count / serviceConns
				if conn < count%serviceConns {
					share++
				}
				more = func(n int) bool { return n < share }
			}
			for n := 0; more(n); n++ {
				key := keys[z.Uint64()]
				var hdr []string
				want := http.StatusOK
				if notmod {
					hdr, want = []string{"If-None-Match", `"` + key + `"`}, http.StatusNotModified
				}
				t0 := time.Now()
				resp, err := c.get("GET /v1/results", 0, sv.url+"/v1/results/"+key, hdr...)
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
				switch {
				case err != nil:
					errs++
				case resp.code != want:
					bad++
				case want == http.StatusOK && !bytes.Equal(resp.body, bodies[key]):
					bad++
				}
			}
			mu.Lock()
			p.ms = append(p.ms, lat...)
			p.bad += bad
			p.errs += errs
			mu.Unlock()
		}(conn)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func runService(rc runConfig, r *report) error {
	p, err := runServicePass(rc, filepath.Join(rc.dir, "untraced"), nil, nil, nil, r)
	if err != nil {
		return err
	}
	accountService(p, r)
	jobMs, doneMs := jobTimes(p.jobs)
	r.endToEnd("setup_s", "setup_cpu_s", "s", p.setup)
	r.endToEnd("work_s", "revalidations_cpu_s", "s", p.notmodCPU.Seconds())
	r.endToEnd("op_ms", "job_cpu_ms", "ms", jobCPUMs(p))
	r.endToEnd("rate_per_s", "reads_per_cpu_s", "1/s", float64(len(p.plain.ms))/p.plainCPU.Seconds())
	r.endToEnd("quality", "normhs_cmm-a", "ratio", p.normHS)
	r.named("job_done_p50_ms", "ms", median(doneMs))
	r.named("job_p50_ms", "ms", median(jobMs))
	r.named("job_p95_ms", "ms", percentile(jobMs, 95))
	r.named("read_rps", "1/s", float64(len(p.plain.ms))/p.plain.wall.Seconds())
	r.named("read_304_rps", "1/s", float64(len(p.notmod.ms))/p.notmod.wall.Seconds())
	r.named("read_p50_ms", "ms", median(p.plain.ms))
	r.named("read_p99_ms", "ms", percentile(p.plain.ms, 99))
	if !rc.trace {
		return nil
	}

	tr := newTracer()
	sink := &eventSink{tr: tr}
	prof := &profile{}
	tp, err := runServicePass(rc, filepath.Join(rc.dir, "traced"), tr, sink, prof, r)
	if err != nil {
		return err
	}
	accountService(tp, r)
	var lv layerValues
	var submit, queue, run, publish []float64
	for _, j := range tp.jobs {
		submit = append(submit, float64(j.submit.Nanoseconds())/1e6)
		queue = append(queue, float64(j.queue.Nanoseconds())/1e6)
		run = append(run, float64(j.run.Nanoseconds())/1e6)
		publish = append(publish, float64(j.publish.Nanoseconds())/1e6)
	}
	n := float64(len(tp.jobs))
	lv.submitMs, lv.queueMs, lv.runMs, lv.publishMs = median(submit), median(queue), median(run), median(publish)
	lv.hitRatio, lv.notModified, lv.metricsMs = tp.hitRatio, tp.notMod, median(tp.scrapes)
	lv.puts, lv.bytesWritten = tp.runFS.writes, tp.runFS.bytesWritten
	if tp.runFS.writes > 0 {
		lv.putUs = float64(tp.runFS.writeNs+tp.runFS.renameNs) / float64(tp.runFS.writes) / 1e3
	}
	lv.getsPerOp, lv.fsOpsPerOp = float64(tp.runFS.reads)/n, float64(tp.runFS.ops)/n
	if tp.runFS.reads > 0 {
		lv.getUs = float64(tp.runFS.readNs) / float64(tp.runFS.reads) / 1e3
	}
	lv.jobFsOpsPerOp, lv.jobFsMsPerOp = float64(tp.jobFS.ops)/n, float64(tp.jobFS.opNs)/n/1e6
	lv.events = tp.events
	emitLayers(r, lv)
	return layerTail(rc, r, tr, prof, tp.mem0, tp.mem1, 100*(jobCPUMs(tp)/jobCPUMs(p)-1))
}

// jobCPUMs is the process's CPU time over the job phase per job, in ms.
func jobCPUMs(p servicePass) float64 {
	return float64(p.jobCPU.Nanoseconds()) / 1e6 / float64(len(p.jobs))
}

// jobTimes returns each job's time from submit to its result's receipt and
// from submit to its recorded finish, in ms.
func jobTimes(jobs []jobTiming) (received, done []float64) {
	for _, j := range jobs {
		received = append(received, float64(j.latency.Nanoseconds())/1e6)
		done = append(done, float64((j.latency-j.publish).Nanoseconds())/1e6)
	}
	return received, done
}

// accountService records one pass's operation accounting and read checks.
func accountService(p servicePass, r *report) {
	done, failed := int64(0), int64(0)
	for _, j := range p.jobs {
		if j.ok {
			done++
		} else {
			failed++
		}
	}
	r.op("jobs (submitted, not done on attempt 1 counted failed)", int64(len(p.jobs)), failed)
	r.note("jobs done %d, failed %d", done, failed)
	for _, ph := range []struct {
		name string
		readPhase
	}{{"reads", p.plain}, {"revalidations", p.notmod}} {
		r.op(ph.name+" (wrong status or body, and transport errors, counted failed)", int64(len(ph.ms)), ph.bad+ph.errs)
		r.note("%s answered wrongly %d, errored %d", ph.name, ph.bad, ph.errs)
		r.check(ph.bad == 0 && ph.errs == 0, "service: %d %s answered wrongly, %d errored", ph.bad, ph.name, ph.errs)
	}
	r.op("/metrics scrapes (timed, traced pass only)", int64(len(p.scrapes)), 0)
}
