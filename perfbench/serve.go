package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// serve-mix: the service path. A seeded open-loop Poisson schedule of
// POST /run queries, then a closed loop of nproc clients running the
// same mix, against netdist.Service over its result cache over a
// NetBackend dialing one in-process TCP worker server.
const (
	// openRate is the open-loop arrival rate, well below the service's
	// capacity so query_ms_p90 stays under latencyLimitMS.
	openRate       = 40.0
	latencyLimitMS = 300.0
	// openShare of the window is the open loop; the rest is closed.
	openShare = 0.8
	// serveCacheBytes is the service's default budget, which a run does
	// not fill: a repeated window is always a full hit.
	serveCacheBytes = 256 << 20
	// serveConns is the number of worker connections. With one, and every
	// query at serveParallelism 1, a miss runs its replications one at a
	// time on one core and leaves the other to HTTP, the cache and the
	// client. A miss spread over both cores waits for the slower one, and
	// the tail latencies then follow any loss of either core: a busy loop
	// holding one core raised them by 80-120% that way, against about 25%
	// with one core per miss.
	serveConns = 1

	queryHeader = "X-Perfbench-Query"
	spanHeader  = "X-Perfbench-Span"
)

// serveStack is one set-up of the service under test.
type serveStack struct {
	workers     *netdist.Server
	workersDone chan error
	nb          *netdist.NetBackend
	svc         *netdist.Service
	cacheWrap   *spanBackend // Service → Cache seam; nil when untraced
	netWrap     *spanBackend // Cache → NetBackend seam; nil when untraced
	http        *http.Server
	httpDone    chan error
	base        string
	client      *http.Client
	rec         *recorder
}

// startServe stands up the worker server, the NetBackend dialing it
// serveConns times, the cached service and its HTTP listener.
// Connections are dialed on the first query.
func startServe(o opts) (*serveStack, error) {
	s := &serveStack{rec: o.rec}
	ws, err := netdist.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.workers, s.workersDone = ws, make(chan error, 1)
	go func() { s.workersDone <- ws.Serve() }()
	addrs := make([]string, serveConns)
	for i := range addrs {
		addrs[i] = ws.Addr()
	}
	if s.nb, err = netdist.NewBackend(netdist.BackendOptions{Addrs: addrs}); err != nil {
		s.close()
		return nil, err
	}
	// Both phases build the same stack; the traced one only adds the
	// pass-through span wrappers at the two seams.
	var inner session.Backend = s.nb
	if o.rec != nil {
		s.netWrap = &spanBackend{name: "net", inner: s.nb, rec: o.rec, innerBusy: s.workerBusy}
		inner = s.netWrap
	}
	var cache session.Backend = netdist.NewCache(inner, serveCacheBytes)
	if o.rec != nil {
		s.cacheWrap = &spanBackend{name: "cache", inner: cache, rec: o.rec}
		cache = s.cacheWrap
	}
	s.svc = netdist.NewService(netdist.ServiceOptions{Backend: cache, CacheBytes: -1})
	handler := s.svc.Handler()
	if o.rec != nil {
		handler = s.traceHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.http, s.httpDone = &http.Server{Handler: handler}, make(chan error, 1)
	go func() { s.httpDone <- s.http.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// close stops everything startServe started and waits for it.
func (s *serveStack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.http.Shutdown(ctx); err != nil {
			_ = s.http.Close()
		}
		cancel()
		<-s.httpDone
	}
	if s.svc != nil {
		_ = s.svc.Close()
	}
	if s.nb != nil {
		_ = s.nb.Close()
	}
	_ = s.workers.Close()
	<-s.workersDone
}

// workerBusy reads each worker connection's cumulative pool busy time
// from the coordinator's DistribStats.
func (s *serveStack) workerBusy() map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	for _, w := range s.nb.DistribStats().Workers {
		out[w.ID] = time.Duration(w.Pool.BusySeconds * float64(time.Second))
	}
	return out
}

// traceHandler records a "service" span around the service's handler,
// as a child of the client's request span named in the headers, and
// hands the span to the handler's context so the Backend seams below
// attach to it.
func (s *serveStack) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q, _ := strconv.ParseUint(req.Header.Get(queryHeader), 10, 64)
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		ctx := context.WithValue(req.Context(), spanKey{}, spanRef{id: parent, query: q})
		ctx, end := s.rec.start(ctx, "service")
		h.ServeHTTP(w, req.WithContext(ctx))
		end(0)
	})
}

// reply is one finished query as the client saw it.
type reply struct {
	q           query
	first, done time.Duration // from the due time
	lag         time.Duration
	status      int
	body        []byte
	err         error
}

// do sends q and reads the whole response, timing the first NDJSON line
// (or first CSV byte) and the end of the body from due.
func (s *serveStack) do(ctx context.Context, q query, due time.Time) reply {
	rep := reply{q: q}
	payload, err := json.Marshal(q.Spec)
	if err != nil {
		rep.err = err
		return rep
	}
	url := s.base + "/run"
	if q.CSV {
		url += "?format=csv"
	}
	qctx, end := s.rec.start(withQuery(ctx, q.ID), "request")
	defer end(0)
	req, err := http.NewRequestWithContext(qctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		rep.err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	if s.rec != nil {
		ref, _ := qctx.Value(spanKey{}).(spanRef)
		req.Header.Set(queryHeader, strconv.FormatUint(q.ID, 10))
		req.Header.Set(spanHeader, strconv.FormatUint(ref.id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var body bytes.Buffer
	if q.CSV {
		if c, err := br.ReadByte(); err == nil {
			body.WriteByte(c)
		}
	} else {
		line, _ := br.ReadBytes('\n')
		body.Write(line)
	}
	rep.first = time.Since(due)
	_, rep.err = io.Copy(&body, br)
	rep.done = time.Since(due)
	rep.body = body.Bytes()
	return rep
}

// The NDJSON lines of a /run response, as the service encodes them.
type ndItem struct {
	Index         int     `json:"index"`
	Seed          uint64  `json:"seed"`
	LocalMissPct  float64 `json:"localMissPct"`
	GlobalMissPct float64 `json:"globalMissPct"`
}

type ndEstimate struct {
	Mean   float64 `json:"mean"`
	HalfCI float64 `json:"halfCI"`
}

type ndFinal struct {
	Final    bool       `json:"final"`
	Reps     int        `json:"reps"`
	Partial  bool       `json:"partial,omitempty"`
	LocalMD  ndEstimate `json:"localMD"`
	GlobalMD ndEstimate `json:"globalMD"`
}

// validate checks a reply's shape: status 200; for NDJSON one line per
// replication in seed order and a complete final line; for CSV a header
// and at least one row.
func validate(rep reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	lines := bytes.Split(bytes.TrimSuffix(rep.body, []byte("\n")), []byte("\n"))
	if rep.q.CSV {
		if len(lines) < 2 || !bytes.Contains(lines[0], []byte(",")) {
			return fmt.Errorf("CSV body has %d lines", len(lines))
		}
		return nil
	}
	reps := rep.q.Spec.Reps
	if len(lines) != reps+1 {
		return fmt.Errorf("NDJSON body has %d lines, want %d", len(lines), reps+1)
	}
	for i, line := range lines[:reps] {
		var it ndItem
		if err := json.Unmarshal(line, &it); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
		if it.Index != i || it.Seed != rep.q.Spec.Seed+uint64(i) {
			return fmt.Errorf("line %d is index %d seed %d", i, it.Index, it.Seed)
		}
	}
	var fin ndFinal
	if err := json.Unmarshal(lines[reps], &fin); err != nil {
		return fmt.Errorf("final line: %w", err)
	}
	if !fin.Final || fin.Reps != reps || fin.Partial {
		return fmt.Errorf("final line %s", lines[reps])
	}
	return nil
}

// referenceBody renders the response to q from an in-process
// Session.Run of the same job, encoded the way the service encodes it.
func referenceBody(ctx context.Context, sess *repro.Session, q query) ([]byte, error) {
	spec := q.Spec
	cfg := system.Baseline()
	cfg.Horizon, cfg.Load, cfg.SSP, cfg.PSP, cfg.Seed = spec.Horizon, spec.Load, spec.SSP, spec.PSP, spec.Seed
	if spec.Nodes > 0 {
		cfg.Nodes = spec.Nodes
	}
	if spec.Preset != "" {
		sc, err := scenario.Preset(spec.Preset, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		cfg.Scenario = sc
	}
	res, err := sess.Run(ctx, repro.Job{Config: cfg, Reps: spec.Reps})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if q.CSV {
		if res.Series == nil {
			return nil, errors.New("no series")
		}
		err = res.Series.WriteCSV(&buf)
		return buf.Bytes(), err
	}
	enc := json.NewEncoder(&buf)
	for i, m := range res.Runs {
		if err := enc.Encode(ndItem{Index: i, Seed: res.Seeds[i], LocalMissPct: m.MDLocal(), GlobalMissPct: m.MDGlobal()}); err != nil {
			return nil, err
		}
	}
	err = enc.Encode(ndFinal{
		Final:    true,
		Reps:     len(res.Runs),
		Partial:  res.Partial,
		LocalMD:  ndEstimate{Mean: res.LocalMD.Mean, HalfCI: res.LocalMD.HalfCI},
		GlobalMD: ndEstimate{Mean: res.GlobalMD.Mean, HalfCI: res.GlobalMD.HalfCI},
	})
	return buf.Bytes(), err
}

// identity remembers the first body served for each spec; every later
// response to an identical spec must be byte-identical to it.
type identity map[string][32]byte

func (id identity) check(r *result, rep reply) {
	key, _ := json.Marshal(rep.q.Spec)
	if rep.q.CSV {
		key = append(key, "?csv"...)
	}
	sum := sha256.Sum256(rep.body)
	if prev, ok := id[string(key)]; ok {
		r.check(prev == sum, "query %d: body differs from an earlier response to %s", rep.q.ID, key)
		return
	}
	id[string(key)] = sum
}

func runServeMix(ctx context.Context, o opts) (*result, error) {
	r := &result{rec: o.rec}
	m := newMix(o.seed)
	prefill := m.prefill()
	openDur := time.Duration(float64(o.window) * openShare)
	schedule := m.openLoop(openRate, openDur)
	if len(schedule) == 0 {
		return nil, errors.New("empty open-loop schedule")
	}

	// Set-up: listen, dial, handshake and the first cold workspaces,
	// ready when a first query has been answered.
	warm := query{Spec: netdist.JobSpec{Horizon: serveHorizon, Reps: serveReps, Seed: 1, Parallelism: serveParallelism}}
	var s *serveStack
	for round := 0; round < setupRounds; round++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startServe(o); err != nil {
			return nil, err
		}
		rep := s.do(ctx, warm, t0)
		r.setups = append(r.setups, time.Since(t0))
		r.attempted++
		r.check(validate(rep) == nil, "set-up query: %v", validate(rep))
	}
	defer s.close()

	// Fill the cache with one window per design point, untimed. The
	// first NDJSON and the first CSV body must match an in-process
	// Session.Run of the same job.
	ids := identity{}
	digest := sha256.New()
	ref := repro.NewSession(repro.WithParallelism(nproc))
	for i, q := range prefill {
		q.ID = 0 // not a measured query
		rep := s.do(ctx, q, time.Now())
		r.attempted++
		if !r.check(validate(rep) == nil, "prefill query %+v: %v", q.Spec, validate(rep)) {
			continue
		}
		if i == 0 || i == len(m.points) {
			want, err := referenceBody(ctx, ref, q)
			r.attempted++
			r.check(err == nil && bytes.Equal(rep.body, want), "served body for %+v differs from in-process Session.Run (%v)", q.Spec, err)
		}
		ids.check(r, rep)
		digest.Write(rep.body)
	}
	_ = ref.Close()

	heap := startHeapSampler(10 * time.Millisecond)
	gc0 := gcCycles()

	// Open loop: each query is sent when due, whatever is in flight.
	replies := make([]reply, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range schedule {
		due := start.Add(q.Due)
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = s.do(ctx, q, due)
			replies[i].lag = lag
		}()
	}
	wg.Wait()
	var buf [8]byte
	for _, rep := range replies {
		r.attempted++
		if err := validate(rep); !r.check(err == nil, "query %d (%s): %v", rep.q.ID, rep.q.Kind, err) {
			continue
		}
		ids.check(r, rep)
		kind := rep.q.Kind
		if rep.q.CSV {
			kind = "csv"
		}
		r.samples = append(r.samples, sample{at: rep.q.Due, first: rep.first, done: rep.done, lag: rep.lag, kind: kind})
		binary.LittleEndian.PutUint64(buf[:], rep.q.ID)
		digest.Write(buf[:])
		sum := sha256.Sum256(rep.body)
		digest.Write(sum[:])
	}
	r.latSegments, r.latSpan = segments, openDur
	snap := s.svc.Snapshot()
	r.check(engineOK(snap.Engine), "engine invariant after the open loop: %+v", snap.Engine)
	r.counts = engineCounts(snap.Engine)
	if s.cacheWrap != nil {
		r.counts["workload.arrivals"] = float64(s.cacheWrap.tally().Arrivals)
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))[:32]

	// Closed loop: nproc clients, each sending its next query of the
	// stream when its previous one is answered, to find capacity. The
	// service's task count is read at every segment boundary.
	closedDur := o.window - openDur
	var mu sync.Mutex
	var closed []reply
	cstart := time.Now()
	deadline := cstart.Add(closedDur)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Now().After(deadline) {
					mu.Unlock()
					return
				}
				q := m.next()
				mu.Unlock()
				rep := s.do(ctx, q, time.Now())
				mu.Lock()
				closed = append(closed, rep)
				mu.Unlock()
			}
		}()
	}
	prevAt, prevTasks, prevOps := cstart, snap.Engine.TasksSubmitted, 0
	for k := 1; k <= segments; k++ {
		if k < segments {
			time.Sleep(time.Until(cstart.Add(closedDur * time.Duration(k) / segments)))
		} else {
			wg.Wait() // the last segment ends when the last query is answered
		}
		now, tasks := time.Now(), s.svc.Snapshot().Engine.TasksSubmitted
		mu.Lock()
		ops := len(closed)
		mu.Unlock()
		r.rates = append(r.rates, rate{tasks: tasks - prevTasks, ops: ops - prevOps, wall: now.Sub(prevAt)})
		prevAt, prevTasks, prevOps = now, tasks, ops
	}
	end := s.svc.Snapshot()
	r.peakHeap = heap.Stop()
	r.gcCycles = gcCycles() - gc0
	for _, rep := range closed {
		r.attempted++
		if err := validate(rep); r.check(err == nil, "closed-loop query %d (%s): %v", rep.q.ID, rep.q.Kind, err) {
			ids.check(r, rep)
		}
	}
	if p90 := r.latency(all, done, 0.9); p90 > latencyLimitMS {
		fmt.Printf("  WARNING: open-loop query_ms_p90 %.1f ms is over the %.0f ms limit at %.0f queries/s\n", p90, latencyLimitMS, openRate)
	}
	serveLayers(r, s, end)
	return r, nil
}

// serveLayers derives the session, cache, net, distrib and service
// per-layer metrics of a traced serve-mix phase.
func serveLayers(r *result, s *serveStack, snap obs.Snapshot) {
	if s.netWrap == nil {
		return
	}
	spans := r.rec.all()
	self := selfTimes(spans)
	var requests, services, caches, nets []span
	cacheByQuery := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Query == 0 {
			continue // set-up and reference queries
		}
		switch sp.Name {
		case "request":
			requests = append(requests, sp)
		case "service":
			services = append(services, sp)
		case "cache":
			caches = append(caches, sp)
			cacheByQuery[sp.Query] = append(cacheByQuery[sp.Query], sp)
		case "net":
			nets = append(nets, sp)
		}
	}
	serviceSelf := make([]float64, len(requests))
	for i, req := range requests {
		serviceSelf[i] = ms(req.dur() - covered(req, cacheByQuery[req.Query]))
	}
	nt := s.netWrap.tally()
	reps := float64(max(nt.Reps, 1))
	pool := snap.Session.Pool
	r.layer = map[string]float64{
		"session.job_ms":      medianMS(services),
		"session.self_ms":     medianSelfMS(services, self),
		"session.rep_busy_ms": 1e3 * pool.BusySeconds / reps,
		"session.warm_ratio":  float64(pool.WarmAcquires) / float64(max(pool.WarmAcquires+pool.ColdAcquires, 1)),
		"system.ns_per_task":  1e9 * pool.BusySeconds / float64(max(nt.Tasks, 1)),
		"sim.ns_per_event":    1e9 * pool.BusySeconds / float64(max(nt.Events, 1)),
		"cache.self_ms":       medianSelfMS(caches, self),
		"net.shard_ms":        medianMS(nets),
		"net.self_ms":         medianSelfMS(nets, self),
		"service.self_ms":     median(serviceSelf),
	}
	if c := snap.Cache; c != nil {
		r.layer["cache.hit_ratio"] = float64(c.Hits) / float64(max(c.Hits+c.Misses, 1))
		r.layer["cache.bytes"] = float64(c.Bytes)
		r.layer["cache.evictions"] = float64(c.Evictions)
	}
	if n := snap.Net; n != nil {
		r.layer["net.bytes_per_rep"] = float64(n.BytesSent+n.BytesRecv) / reps
		r.layer["net.frames_per_rep"] = float64(n.FramesSent+n.FramesRecv) / reps
	}
	if d := snap.Distrib; d != nil {
		r.layer["distrib.retries"] = float64(d.Retries)
		r.layer["distrib.hedges_lost"] = float64(d.HedgesLost)
		r.layer["distrib.merge_depth_hwm"] = float64(d.MergeDepthHWM)
	}
}
