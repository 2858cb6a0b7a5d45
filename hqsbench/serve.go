package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/httpapi"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// serveClients is the closed loop's client count: each waits for its
	// reply before sending the next request, as /solve callers do.
	serveClients = 2
	// lruSize is hqsd's default LRU capacity, set explicitly so the warm
	// working set is known to exceed it.
	lruSize = 256
	// warmSetSize is serve_warm's working set, pre-solved during warm-up:
	// 2.3 times the LRU, so repeats also reach the store, and small enough
	// that the warm-up (about 0.02 s per instance) stays a minor part of a
	// run.
	warmSetSize = 600
	// zipfS is the skew of serve_warm's request popularity.
	zipfS = 1.1
	// coldBatch and warmBatch are the fixed batch sizes solve_s_total
	// reports the summed latency of (batch × the run's typical mean
	// latency), about one 20 s window of requests on a 2-core host.
	coldBatch = 800
	warmBatch = 40000
	// probeLimit bounds how many distinct traced requests are replayed
	// through the layer probes.
	probeLimit = 200
)

var contentTypes = map[problem.Format]string{
	problem.FormatDQDIMACS: "application/x-dqdimacs",
	problem.FormatQDIMACS:  "application/x-qdimacs",
	problem.FormatBENCH:    "application/x-bench",
}

// server is an in-process hqsd configured like `hqsd -store DIR` with the
// daemon's other defaults, on a loopback listener.
type server struct {
	dir    string
	st     *store.Store
	sched  *service.Scheduler
	hs     *http.Server
	url    string
	served chan error
	// tr, when set, receives one span per handled request.
	tr atomic.Pointer[tracer]
}

func startServer(dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, st: st, served: make(chan error, 1)}
	s.sched = service.NewScheduler(service.Config{
		Workers:       2,
		QueueCap:      64,
		CacheSize:     lruSize,
		DefaultEngine: service.EnginePortfolio,
		Store:         st,
	})
	api := httpapi.New(s.sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.spans(api.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// spans wraps the daemon's handler with a span per request, linked to the
// client's span through the X-Bench-Req and X-Bench-Span headers.
func (s *server) spans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.tr.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		t.timed(req, parent, "httpapi.handler", func(int) { next.ServeHTTP(w, r) })
	})
}

// stop drains the scheduler, shuts the listener down and closes the store,
// waiting for every goroutine the server started.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := s.sched.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	if err := <-s.served; err != http.ErrServerClosed {
		serr = err
	}
	cerr := s.st.Close()
	for _, err := range []error{derr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample is one request as the client saw it.
type sample struct {
	req       int
	inst      int
	latencyMS float64
	queueMS   float64
	solveMS   float64
	fromCache bool
	fromStore bool
	ok        bool // 200 with a definitive verdict
	conflicts int64
	decisions int64
}

type jobReply struct {
	ID          string `json:"id"`
	QueueWaitMS int64  `json:"queue_wait_ms"`
	SolveTimeMS int64  `json:"solve_time_ms"`
	Outcome     *struct {
		Verdict   string `json:"verdict"`
		FromCache bool   `json:"from_cache"`
		FromStore bool   `json:"from_store"`
		Conflicts int64  `json:"conflicts"`
		Decisions int64  `json:"decisions"`
	} `json:"outcome"`
}

// serveFixture is a serve workload's set-up: the pool, its reference
// verdicts, the seed's request order and a running server.
type serveFixture struct {
	pool  []instance
	exps  []expectation
	order []int
	srv   *server
	hc    *http.Client
	once  sync.Once
	err   error
}

func setupServe(seed int64, dir string) (*serveFixture, error) {
	pool, err := servePool()
	if err != nil {
		return nil, err
	}
	exps, err := loadExpected(expectedServeTSV, pool)
	if err != nil {
		return nil, err
	}
	cost := make([]float64, len(exps))
	for i, e := range exps {
		cost[i] = e.HQSMS
	}
	srv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	return &serveFixture{
		pool:  pool,
		exps:  exps,
		order: stratifiedOrder(cost, seed),
		srv:   srv,
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
		},
	}, nil
}

// close stops the server once; later calls return the first result.
func (f *serveFixture) close() error {
	f.once.Do(func() {
		f.hc.CloseIdleConnections()
		f.err = f.srv.stop()
	})
	return f.err
}

// post sends one instance to /solve and checks the verdict against the
// reference. Transport errors, non-200 replies and UNKNOWN/ERROR verdicts
// leave ok false; a wrong verdict is reported through o.
func (f *serveFixture) post(idx, req int, t *tracer, o *outcome, mu *sync.Mutex) sample {
	inst := &f.pool[idx]
	s := sample{req: req, inst: idx}
	start := time.Now()
	t.timed(req, 0, "client.request", func(id int) {
		hr, err := http.NewRequest(http.MethodPost, f.srv.url+"/solve", bytes.NewReader(inst.Body))
		if err != nil {
			return
		}
		hr.Header.Set("Content-Type", contentTypes[inst.Format])
		if t != nil {
			hr.Header.Set("X-Bench-Req", strconv.Itoa(req))
			hr.Header.Set("X-Bench-Span", strconv.Itoa(id))
		}
		resp, err := f.hc.Do(hr)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var jr jobReply
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil || resp.StatusCode != http.StatusOK || jr.Outcome == nil {
			return
		}
		s.queueMS, s.solveMS = float64(jr.QueueWaitMS), float64(jr.SolveTimeMS)
		s.fromCache, s.fromStore = jr.Outcome.FromCache, jr.Outcome.FromStore
		s.conflicts, s.decisions = jr.Outcome.Conflicts, jr.Outcome.Decisions
		v := jr.Outcome.Verdict
		if v != "SAT" && v != "UNSAT" {
			return
		}
		s.ok = true
		if want := f.exps[idx]; (v == "SAT") != want.Sat {
			mu.Lock()
			o.fail("%s: server says %s, reference (%s) says sat=%v", inst.Name, v, want.Source, want.Sat)
			mu.Unlock()
		}
		if t != nil {
			f.recordJobTrace(t, req, id, jr.ID)
		}
	})
	s.latencyMS = since(start) * 1e3
	return s
}

// recordJobTrace adds the pass events the job's engines emitted as spans
// under the request's client span.
func (f *serveFixture) recordJobTrace(t *tracer, req, parent int, jobID string) {
	job, ok := f.srv.sched.Job(jobID)
	if !ok {
		return
	}
	events, _ := job.Trace()
	sink := &passSink{t: t, req: req, parent: parent}
	now := time.Now()
	for _, ev := range events {
		sink.record(ev, now.Add(-ev.Wall))
	}
}

// loop runs the closed loop until the window has passed or pick runs out
// of requests. pick returns the pool index of a client's next request, or
// -1.
func (f *serveFixture) loop(window time.Duration, pick func(client int) int, t *tracer, o *outcome) ([]sample, float64) {
	var (
		mu      sync.Mutex
		samples []sample
		nextReq atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window {
				idx := pick(c)
				if idx < 0 {
					return
				}
				s := f.post(idx, int(nextReq.Add(1)), t, o, &mu)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, since(start)
}

// coldPicker hands out the seed's order once, so no request repeats an
// earlier one's canonical hash.
func (f *serveFixture) coldPicker() func(int) int {
	var next atomic.Int64
	return func(int) int {
		i := int(next.Add(1)) - 1
		if i >= len(f.order) {
			return -1
		}
		return f.order[i]
	}
}

// warmPicker draws from the warm working set by Zipf popularity, one
// seeded generator per client.
func (f *serveFixture) warmPicker(seed int64) func(int) int {
	zs := make([]*rand.Zipf, serveClients)
	for c := range zs {
		zs[c] = rand.NewZipf(rand.New(rand.NewSource(seed*31+int64(c))), zipfS, 1, warmSetSize-1)
	}
	return func(c int) int { return f.order[zs[c].Uint64()] }
}

// warmUp pre-solves the first size instances of the seed's order through
// the server, checking every verdict, so the store holds all of them and
// the LRU its most recent part.
func (f *serveFixture) warmUp(size int, o *outcome) error {
	var next atomic.Int64
	pick := func(int) int {
		i := int(next.Add(1)) - 1
		if i >= size {
			return -1
		}
		return f.order[i]
	}
	samples, _ := f.loop(time.Hour, pick, nil, o)
	for _, s := range samples {
		if !s.ok {
			return fmt.Errorf("warm-up request for %s failed", f.pool[s.inst].Name)
		}
	}
	return nil
}

func runServe(cfg config, warm bool) (*outcome, error) {
	o := newOutcome()
	dir := filepath.Join(outDir, "store-"+cfg.Workload)
	var f *serveFixture
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = setupServe(cfg.Seed, dir); err != nil {
			return nil, err
		}
		setups = append(setups, since(start))
	}
	defer f.close()

	pick, batch := f.coldPicker(), coldBatch
	if warm {
		start := time.Now()
		if err := f.warmUp(warmSetSize, o); err != nil {
			return nil, err
		}
		fmt.Printf("warm-up: %d requests in %.2fs\n", warmSetSize, since(start))
		pick, batch = f.warmPicker(cfg.Seed), warmBatch
	}
	// Set-up garbage is collected before measuring, so it does not set the
	// pace of the first collections inside the window.
	runtime.GC()
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		err := f.traced(window, pick, o)
		if cerr := f.close(); err == nil {
			err = cerr
		}
		return o, err
	}

	samples, wall := f.loop(window, pick, nil, o)
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	o.Attempted, o.Failed = len(samples), len(samples)-ok
	o.set("setup_s", median(setups), setups)
	o.count("peak_rss_mb", peakRSSMB())

	var lat []float64
	for _, s := range samples {
		lat = append(lat, s.latencyMS)
	}
	o.set("solve_s_total", float64(batch)*mean(lat)/1e3, lat)
	o.set("solve_ms_geomean", geomean(lat), lat)
	o.set("latency_ms_p50", median(lat), lat)
	o.set("latency_ms_p90", quantile(lat, 0.9), lat)
	o.set("requests_per_s", float64(len(samples))/wall, lat)
	o.set("ok_frac", frac(ok-o.Mismatches, len(samples)), nil)
	return o, f.close()
}

// traced runs half the window untraced and half traced, then replays the
// traced requests' instances through the layer probes.
func (f *serveFixture) traced(window time.Duration, pick func(int) int, o *outcome) error {
	plain, _ := f.loop(window/2, pick, nil, o)

	t := newTracer()
	f.srv.tr.Store(t)
	engBefore := service.EngineStats()
	statsBefore := f.srv.sched.Stats()
	samples, _ := f.loop(window/2, pick, t, o)
	f.srv.tr.Store(nil)
	engAfter := service.EngineStats()
	statsAfter := f.srv.sched.Stats()

	var lat, over, queue, engine []float64
	var cache, stored, ok int
	var conflicts, decisions int64
	for _, s := range samples {
		lat = append(lat, s.latencyMS)
		over = append(over, s.latencyMS-s.queueMS-s.solveMS)
		queue = append(queue, s.queueMS)
		switch {
		case s.fromCache:
			cache++
		case s.fromStore:
			stored++
		default:
			engine = append(engine, s.solveMS)
		}
		if s.ok {
			ok++
		}
		conflicts += s.conflicts
		decisions += s.decisions
	}
	var plainLat []float64
	for _, s := range plain {
		plainLat = append(plainLat, s.latencyMS)
		if s.ok {
			ok++
		}
	}
	o.Attempted = len(plain) + len(samples)
	o.Failed = o.Attempted - ok

	f.probe(t, samples, o)
	tot := t.totals()
	passMetrics(o, tot, t)
	o.set("httpapi.overhead_ms_p50", median(over), over)
	o.set("service.queue_wait_ms_p90", quantile(queue, 0.9), queue)
	o.set("service.engine_ms_p50", median(engine), engine)
	o.count("service.cache_hit_frac", frac(cache, len(samples)))
	o.count("service.store_hit_frac", frac(stored, len(samples)))
	for _, a := range arms {
		eng := service.Engine(a)
		att := engAfter[eng].Attempts - engBefore[eng].Attempts
		wins := engAfter[eng].Wins - engBefore[eng].Wins
		o.count("service.arm_win_frac."+a, frac(int(wins), int(att)))
	}
	o.spanMean("problem.parse_ms_mean", tot, "problem.parse")
	o.spanMean("problem.hash_ms_mean", tot, "problem.hash")
	o.spanMean("store.get_ms_mean", tot, "store.get")
	o.spanMean("store.put_ms_mean", tot, "store.put")
	o.spanMean("cert.check_ms_mean", tot, "cert.check")
	o.spanMean("cert.encode_ms_mean", tot, "cert.encode")
	o.spanMean("cert.decode_ms_mean", tot, "cert.decode")
	q := statsAfter.OracleQueries - statsBefore.OracleQueries
	o.count("oracle.queries", float64(q))
	o.count("oracle.incremental_frac", frac(int(statsAfter.OracleIncremental-statsBefore.OracleIncremental), int(q)))
	o.count("oracle.rebuilds", float64(statsAfter.OracleRebuilds-statsBefore.OracleRebuilds))
	o.count("sat.conflicts", float64(conflicts))
	o.count("sat.decisions", float64(decisions))
	o.count("trace.overhead_frac", (mean(lat)-mean(plainLat))/mean(plainLat))
	// By definition queue wait, engine time and httpapi.overhead add up to
	// the client latency (up to JobInfo's whole-millisecond fields); the
	// accounted share here is the part of that latency the server handler
	// itself covers, the rest being loopback transport and the client.
	o.count("trace.accounted_frac", durUS(tot, "httpapi.handler")/durUS(tot, "client.request"))
	o.count("trace.items", float64(len(samples)))
	return writeSpans(t, "serve")
}

// probe replays up to probeLimit distinct traced requests through the
// layers the daemon calls on them, one span per public call under the
// request's id: ingest (problem.ParseBytes, CanonicalHash), the store read
// the next request for that instance would make (store.Get), the
// certificate round trip and re-check when the entry carries one, and a
// write of the entry into a side store (store.Put).
func (f *serveFixture) probe(t *tracer, samples []sample, o *outcome) {
	// The side store starts empty, so every probed Put is a fresh write.
	sideDir := f.srv.dir + "-probe"
	err := os.RemoveAll(sideDir)
	var side *store.Store
	if err == nil {
		side, _, err = store.Open(sideDir)
	}
	if err != nil {
		o.fail("opening probe store: %v", err)
		return
	}
	defer side.Close()
	seen := make(map[int]bool)
	var bytesSeen []float64
	for _, s := range samples {
		if len(seen) == probeLimit {
			break
		}
		if seen[s.inst] || !s.ok {
			continue
		}
		seen[s.inst] = true
		inst := &f.pool[s.inst]
		var p *problem.Problem
		t.timed(s.req, 0, "problem.parse", func(int) { p, err = problem.ParseBytes(inst.Body, inst.Format) })
		if err != nil {
			o.fail("%s: parse: %v", inst.Name, err)
			continue
		}
		var key string
		t.timed(s.req, 0, "problem.hash", func(int) { key = p.CanonicalHash() })
		var e *store.Entry
		t.timed(s.req, 0, "store.get", func(int) { e, err = f.srv.st.Get(key) })
		if err != nil || e == nil {
			continue
		}
		if raw, err := e.MarshalBinary(); err == nil {
			bytesSeen = append(bytesSeen, float64(len(raw)))
		}
		if e.Cert != nil {
			var cerr error
			t.timed(s.req, 0, "cert.check", func(int) { cerr = cert.Check(p.Formula, e.Cert) })
			if cerr != nil {
				o.fail("%s: stored certificate rejected: %v", inst.Name, cerr)
			}
			probeCert(t, s.req, p, e.Cert, o)
		}
		t.timed(s.req, 0, "store.put", func(int) { err = side.Put(e) })
		if err != nil {
			o.fail("%s: store put: %v", inst.Name, err)
		}
	}
	o.set("store.entry_bytes_mean", mean(bytesSeen), bytesSeen)
}
