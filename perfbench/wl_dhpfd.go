package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dhpf"
	"dhpf/internal/nas"
	"dhpf/internal/service"
	"dhpf/internal/store"
)

// The dhpfd stage: an in-process service.Server with a durable store
// behind a loopback listener, driven through dhpf.Client by at most
// dhpfdClients connections.  An open loop at openLoopRate gives request
// latency; a closed loop of dhpfdClients gives throughput.  Its
// /v1/run requests use the workload's engine.
//
// The rate is a tenth of the closed loop's capacity (~150 req/s on a
// 2-CPU Xeon).  About a third of the requests take 15–35 ms, and a fast
// request that arrives while one of them runs shares the CPUs with it,
// or waits for a free connection.  At 30 req/s a quarter of the fast
// requests did, so req_ms.p50 (the 77th percentile of the fast classes)
// sat on that edge, and neighbours on the shared host slowing the slow
// classes moved it by up to 0.44 of its median between seeds.  At
// 15 req/s about an eighth do.
const (
	openLoopRate = 15.0 // requests per second
	dhpfdWorkers = 2
	dhpfdClients = 2
	// openShare is the part of each round run open-loop, the larger
	// part, as the open loop sends far fewer requests.
	openShare = 0.7
	// restartPerStage is how many fingerprints set-up primes into the
	// store for the restart class per started restartStage of the
	// stage; a stage sends at most restartPool/2 blocks of
	// dhpfdBlockLen requests (about 300 a second closed-loop).
	restartPerStage = 300
	restartStage    = 20 * time.Second
	// cacheBytes is the program cache budget.  The cache charges an
	// entry its source and report text, not the live program it holds,
	// so the default budget would keep every cold and edited program of
	// a run alive (about 1 GB).  This budget still holds the hot set,
	// which warm requests touch every block.
	cacheBytes = 1 << 20
	// artifactBytes is the artifact tier's budget, which likewise
	// undercounts what its entries keep alive.  It holds the modular SP
	// procedures every edit reuses many times over.
	artifactBytes = 16 << 20
	// requestTimeout fails a request that takes longer.
	requestTimeout = 30 * time.Second
	// reqTailPct is the open loop's tail percentile, for the report's
	// req_ms.tail and for gen_lag_ms.tail.
	reqTailPct = 95
)

// Cold compiles are SP with a fresh N from coldNLo..coldNLo+coldNSpan-1
// each; restart fingerprints are LU with N = restartNLo + pool index.
// Neither range meets the other programs' defaults.
const (
	coldNLo    = 40
	coldNSpan  = 4000
	restartNLo = 40
)

var restartSource = nas.LUSource(16, 1, 2, 2)

// hotSet is the warm class's programs: the compile stage's sources
// for the message-passing and shared-memory backends.
func hotSet() []dhpf.CompileRequest {
	var out []dhpf.CompileRequest
	for _, backend := range []string{dhpf.BackendMP, dhpf.BackendShm} {
		for _, s := range compileSources {
			out = append(out, dhpf.CompileRequest{Source: s.src, Options: &dhpf.RequestOptions{Backend: backend}})
		}
	}
	return out
}

// runRef is the in-process reference for one /v1/run program.
type runRef struct {
	seconds  float64
	messages int64
	bytes    int64
	u        []float64
}

type dhpfdServer struct {
	st   *store.Store
	srv  *service.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

func startServer(storePath string) (*dhpfdServer, error) {
	st, err := store.Open(storePath, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	cfg := service.Config{Workers: dhpfdWorkers, Store: st, CacheBytes: cacheBytes, ArtifactBytes: artifactBytes}
	s := &dhpfdServer{
		st:   st,
		srv:  service.New(cfg),
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, and closes the store.
func (s *dhpfdServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func newClient(url string) *dhpf.Client {
	c := dhpf.NewClient(url)
	c.HTTPClient = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: dhpfdClients, MaxIdleConnsPerHost: dhpfdClients},
		Timeout:   requestTimeout,
	}
	return c
}

type dhpfdState struct {
	dir     string
	engine  string // of /v1/run requests
	pool    int    // restart fingerprints primed
	server  *dhpfdServer
	client  *dhpf.Client
	hot     []dhpf.CompileRequest
	refs    []runRef
	digests *digestGate // by fingerprint
}

func (st *dhpfdState) release() {
	if st == nil {
		return
	}
	st.client.HTTPClient.CloseIdleConnections()
	if err := st.server.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping dhpfd:", err)
	}
	os.RemoveAll(st.dir)
}

func compileDigest(r *dhpf.CompileResponse) string {
	ranks := make([]int, 0, len(r.NodePrograms))
	for k := range r.NodePrograms {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)
	parts := []string{r.Fingerprint, strconv.Itoa(r.Ranks), r.Report}
	for _, k := range ranks {
		parts = append(parts, strconv.Itoa(k), r.NodePrograms[k])
	}
	return digestStrings(parts...)
}

// setupDhpfd primes the restart pool through a first server, reopens
// the store under a second one, compiles the hot set and checks one run
// of each code against the in-process reference.
func setupDhpfd(b *bench, i, pool int) (*dhpfdState, error) {
	st := &dhpfdState{
		dir:     filepath.Join(outDir, fmt.Sprintf("dhpfd-seed%d-%d", b.seed, i)),
		engine:  b.engine,
		pool:    pool,
		hot:     hotSet(),
		digests: newDigestGate(),
	}
	if err := os.RemoveAll(st.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	for _, code := range execCodes {
		p, err := dhpf.Compile(code.src, nil, dhpf.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("reference compile %s: %w", code.name, err)
		}
		res, err := p.RunEngine(dhpf.SP2Machine(p.Ranks()), st.engine)
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", code.name, err)
		}
		u, _, _, err := res.Array("u")
		if err != nil {
			return nil, err
		}
		st.refs = append(st.refs, runRef{seconds: res.Seconds(), messages: res.Messages(), bytes: res.Bytes(), u: u})
	}

	storePath := filepath.Join(st.dir, "store")
	first, err := startServer(storePath)
	if err != nil {
		return nil, err
	}
	c := newClient(first.url)
	var next atomic.Int64
	errs := make(chan error, dhpfdClients)
	for w := 0; w < dhpfdClients; w++ {
		go func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= st.pool {
					errs <- nil
					return
				}
				resp, err := c.Compile(context.Background(), restartRequest(k))
				if err != nil {
					errs <- fmt.Errorf("priming restart fingerprint %d: %w", k, err)
					return
				}
				st.digests.pin(resp.Fingerprint, compileDigest(resp))
			}
		}()
	}
	for w := 0; w < dhpfdClients; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	c.HTTPClient.CloseIdleConnections()
	if cerr := first.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	if st.server, err = startServer(storePath); err != nil {
		return nil, err
	}
	st.client = newClient(st.server.url)
	ctx := context.Background()
	for _, req := range st.hot {
		resp, err := st.client.Compile(ctx, req)
		if err != nil {
			st.release()
			return nil, fmt.Errorf("hot-set compile: %w", err)
		}
		st.digests.pin(resp.Fingerprint, compileDigest(resp))
	}
	for k := range execCodes {
		if err := st.checkRun(ctx, k, direct); err != nil {
			st.release()
			return nil, err
		}
	}
	return st, nil
}

func restartRequest(k int) dhpf.CompileRequest {
	return dhpf.CompileRequest{Source: restartSource, Params: map[string]int{"N": restartNLo + k}}
}

// direct calls fn untimed (set-up requests).
func direct(fn func() error) error { return fn() }

// checkRun sends one /v1/run of execCodes[k] through call and checks
// it against the in-process reference.
func (st *dhpfdState) checkRun(ctx context.Context, k int, call func(func() error) error) error {
	var resp *dhpf.RunResponse
	err := call(func() error {
		var err error
		resp, err = st.client.Run(ctx, dhpf.RunRequest{Source: execCodes[k].src, Arrays: []string{"u"}, Engine: st.engine})
		return err
	})
	if err != nil {
		return fmt.Errorf("run %s: %w", execCodes[k].name, err)
	}
	if err := compareRun(resp, st.refs[k]); err != nil {
		return fmt.Errorf("run %s: %w", execCodes[k].name, err)
	}
	return nil
}

// compareRun requires a /v1/run response to equal the in-process
// reference exactly: counters, and u bit for bit.
func compareRun(resp *dhpf.RunResponse, ref runRef) error {
	if resp.Seconds != ref.seconds || resp.Messages != ref.messages || resp.Bytes != ref.bytes {
		return fmt.Errorf("counters (%v s, %d msgs, %d bytes) differ from the in-process reference (%v, %d, %d)",
			resp.Seconds, resp.Messages, resp.Bytes, ref.seconds, ref.messages, ref.bytes)
	}
	got := resp.Arrays["u"].Data
	if len(got) != len(ref.u) {
		return fmt.Errorf("u has %d elements, reference %d", len(got), len(ref.u))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref.u[i]) {
			return fmt.Errorf("u[%d] = %v, reference %v", i, got[i], ref.u[i])
		}
	}
	return nil
}

// perform sends one request of the plan through call, which times the
// layer call, and runs its gates.
func (st *dhpfdState) perform(ctx context.Context, q request, call func(func() error) error) error {
	if q.Class == classRun {
		return st.checkRun(ctx, q.Arg, call)
	}
	var req dhpf.CompileRequest
	switch q.Class {
	case classWarm:
		req = st.hot[q.Arg]
	case classCold:
		req = dhpf.CompileRequest{Source: compileSources[0].src, Params: map[string]int{"N": q.Arg}}
	case classEdit:
		src, err := warmEdit(editBase, q.Arg)
		if err != nil {
			return err
		}
		req = dhpf.CompileRequest{Source: src}
	case classRestart:
		if q.Arg >= st.pool {
			return fmt.Errorf("restart pool exhausted")
		}
		req = restartRequest(q.Arg)
	}
	var resp *dhpf.CompileResponse
	err := call(func() error {
		var err error
		resp, err = st.client.Compile(ctx, req)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s compile: %w", q.Class, err)
	}
	return st.digests.check(resp.Fingerprint, compileDigest(resp))
}

// dhpfdSamples are one side's (untraced or traced) raw figures.
type dhpfdSamples struct {
	mu      sync.Mutex
	open    samples            // from due time, open loop
	lag     samples            // send time − due time, open loop
	byClass map[string]samples // from send time, both loops
	// openByClass is open by request class.
	openByClass map[string]samples
	closed      int // closed-loop completions
	closedTime  time.Duration
	// Server.Stats deltas over the side's rounds.
	cacheHits, cacheMisses, backingHits int64
	artHits, artMisses, rejected        int64
}

func (p *dhpfdSamples) addClass(c string, d time.Duration) {
	p.mu.Lock()
	s := p.byClass[c]
	s.add(d)
	p.byClass[c] = s
	p.mu.Unlock()
}

// dhpfdStage is the dhpfd stage: in each round, an open loop for
// openShare of the round, then a closed loop.
type dhpfdStage struct {
	b       *bench
	st      *dhpfdState
	plan    []request
	cursor  atomic.Int64 // next plan index, shared by every round
	due     []time.Duration
	nextDue int              // first arrival of the next round
	openAt  time.Duration    // open-loop time consumed by earlier rounds
	side    [2]*dhpfdSamples // untraced, traced
}

// newDhpfdStage sets up a stage that measures for d in all.
func newDhpfdStage(b *bench, d time.Duration) (*dhpfdStage, error) {
	pool := restartPerStage * int((d+restartStage-1)/restartStage)
	n := pool / dhpfdBlock[classRestart] * dhpfdBlockLen
	setups := 0
	st, err := timeSetup(b, func() (*dhpfdState, error) {
		setups++
		return setupDhpfd(b, setups, pool)
	}, (*dhpfdState).release)
	if err != nil {
		return nil, err
	}
	s := &dhpfdStage{b: b, st: st,
		plan: dhpfdPlan(b.seed, n, len(hotSet()), len(execCodes)),
		due:  arrivals(b.seed, openLoopRate, time.Duration(openShare*float64(d))+time.Second)}
	for k := range s.side {
		s.side[k] = &dhpfdSamples{byClass: map[string]samples{}, openByClass: map[string]samples{}}
	}
	return s, nil
}

func (s *dhpfdStage) name() string   { return "dhpfd" }
func (s *dhpfdStage) share() float64 { return 1 - compileShare - execShare }
func (s *dhpfdStage) close()         { s.st.release() }

func (s *dhpfdStage) measure(d time.Duration, tr *tracer) error {
	b, st := s.b, s.st
	ph := s.side[sideOf(tr)]
	before := st.server.srv.Stats()
	openDur := time.Duration(openShare * float64(d))
	// The round's arrivals: the next openDur of the seeded schedule.
	var due []time.Duration
	for s.nextDue < len(s.due) && s.due[s.nextDue] < s.openAt+openDur {
		due = append(due, s.due[s.nextDue]-s.openAt)
		s.nextDue++
	}
	s.openAt += openDur
	first := s.cursor.Load()
	if int(first)+len(due) > len(s.plan) {
		return fmt.Errorf("request plan of %d exhausted", len(s.plan))
	}
	s.cursor.Add(int64(len(due)))
	// Open loop: each request is sent at its due time by whichever of
	// the dhpfdClients senders is free.
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < dhpfdClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				time.Sleep(time.Until(dueAt))
				sent := time.Now()
				q := s.plan[int(first)+i]
				err := st.send(b, tr, q, ph)
				done := time.Now()
				ph.mu.Lock()
				ph.lag.add(sent.Sub(dueAt))
				if err == nil {
					ph.open.add(done.Sub(dueAt))
					c := ph.openByClass[q.Class]
					c.add(done.Sub(dueAt))
					ph.openByClass[q.Class] = c
				}
				ph.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Closed loop: dhpfdClients clients, each sending its next request
	// when the previous one completes.
	end := start.Add(d)
	cstart := time.Now()
	var doneMu sync.Mutex
	var completed int
	var last time.Time // of the last completion
	exhausted := false
	for w := 0; w < dhpfdClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(s.cursor.Add(1)) - 1
				if i >= len(s.plan) {
					doneMu.Lock()
					exhausted = true
					doneMu.Unlock()
					return
				}
				if st.send(b, tr, s.plan[i], ph) == nil {
					doneMu.Lock()
					completed++
					last = time.Now()
					doneMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if exhausted {
		return fmt.Errorf("request plan of %d exhausted", len(s.plan))
	}
	after := st.server.srv.Stats()
	if completed > 0 {
		ph.closed += completed
		ph.closedTime += last.Sub(cstart)
	}
	ph.cacheHits += after.Cache.Hits - before.Cache.Hits
	ph.cacheMisses += after.Cache.Misses - before.Cache.Misses
	ph.backingHits += after.Cache.BackingHits - before.Cache.BackingHits
	ph.artHits += after.Artifacts.Hits - before.Artifacts.Hits
	ph.artMisses += after.Artifacts.Misses - before.Artifacts.Misses
	ph.rejected += after.Server.Rejected - before.Server.Rejected
	return nil
}

// timings returns one side's end-to-end figures, req_per_s as ms per
// request, and notes its sample counts and tails.
func (s *dhpfdStage) timings(side int) map[string]float64 {
	ph := s.side[side]
	var deciles []float64
	for p := 10.0; p < 100; p += 10 {
		deciles = append(deciles, percentile(ph.open, p))
	}
	// The p95 goes to the report only: with ~18 samples beyond it, it
	// moved by 0.15–0.36 of its median between seeds.
	s.b.note(fmt.Sprintf("samples.dhpfd.side%d", side), map[string]any{"open": len(ph.open),
		"req_ms.tail": percentile(ph.open, reqTailPct), "open_tail_beyond": beyond(len(ph.open), reqTailPct),
		"open_deciles_ms": deciles, "open_class_p50_ms": classMedians(ph.openByClass),
		"lag_p50_ms": median(ph.lag), "lag_p90_ms": percentile(ph.lag, 90),
		"closed": ph.closed, "closed_s": ph.closedTime.Seconds(),
		"plan_used": s.cursor.Load(), "plan_len": len(s.plan)})
	return map[string]float64{"req_ms.p50": median(ph.open), "closed_ms_per_req": 1e3 / s.rate(side)}
}

func (s *dhpfdStage) finish() (plain, traced map[string]float64) {
	b := s.b
	plain = s.timings(0)
	if !b.trace {
		b.set("req_ms.p50", plain["req_ms.p50"], "ms")
		b.set("req_per_s", s.rate(0), "1/s")
		return plain, nil
	}
	traced = s.timings(1)
	ph := s.side[1]
	for _, c := range dhpfdClasses {
		b.set("class_ms."+c, median(ph.byClass[c]), "ms")
	}
	b.set("cache.hit_ratio", ratio(ph.cacheHits, ph.cacheHits+ph.cacheMisses), "ratio")
	b.set("cache.backing_hits", float64(ph.backingHits), "count")
	b.set("artifact.hit_ratio", ratio(ph.artHits, ph.artHits+ph.artMisses), "ratio")
	b.set("rejected", float64(ph.rejected), "count")
	b.set("gen_lag_ms.tail", percentile(ph.lag, reqTailPct), "ms")
	return plain, traced
}

// rate is one side's closed-loop throughput over all its rounds.  A
// round's closed loop is under a second, in which one garbage
// collection more or less moved its rate by a quarter, so rounds are
// pooled, not taken as samples.
func (s *dhpfdStage) rate(side int) float64 {
	ph := s.side[side]
	return float64(ph.closed) / ph.closedTime.Seconds()
}

func classMedians(by map[string]samples) map[string]float64 {
	out := map[string]float64{}
	for c, s := range by {
		out[c] = median(s)
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// send performs one request, counts it, and records its class latency
// from send time.
func (st *dhpfdState) send(b *bench, tr *tracer, q request, ph *dhpfdSamples) error {
	opID := tr.id()
	t0 := time.Now()
	var took time.Duration
	err := st.perform(context.Background(), q, func(fn func() error) error {
		s := time.Now()
		err := fn()
		e := time.Now()
		took = e.Sub(s)
		tr.record(tr.id(), opID, opID, "service."+q.Class, s, e)
		return err
	})
	b.op(err)
	if err == nil {
		ph.addClass(q.Class, took)
	}
	tr.record(opID, 0, opID, "op.dhpfd."+q.Class, t0, time.Now())
	return err
}
