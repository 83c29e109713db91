package main

import (
	"math"
	"path/filepath"
	"sync"
	"time"

	"gph"
	"gph/internal/core"
	"gph/internal/engine"
	"gph/internal/plan"
	"gph/internal/verify"
)

// The traced run's second half: with the server stopped, it rebuilds
// (or re-opens) the same index in-process and times calls into each
// layer's public functions on the same seed-derived requests. Every
// call is a span; the per-request root is "inproc.request".

// layerBudget bounds each in-process phase, so a slow layer cannot
// push a traced run past its time limit.
const layerBudget = 20 * time.Second

// samples collects one layer's durations (µs) from concurrent callers.
type samples struct {
	mu sync.Mutex
	us map[string][]float64
	n  map[string]float64 // summed counts
}

func newSamples() *samples { return &samples{us: map[string][]float64{}, n: map[string]float64{}} }

func (s *samples) add(name string, d time.Duration) {
	s.mu.Lock()
	s.us[name] = append(s.us[name], float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
}

func (s *samples) count(name string, v float64) {
	s.mu.Lock()
	s.n[name] += v
	s.mu.Unlock()
}

// firstTimed is the index of the first read of the timed phase: the
// in-process replay starts where the measured HTTP traffic started.
func (w *window) firstTimed() uint64 {
	first := uint64(math.MaxUint64)
	for _, sm := range w.reads {
		if !sm.pre && w.timed(sm.start) && sm.i < first {
			first = sm.i
		}
	}
	if first == math.MaxUint64 {
		return 0
	}
	return first
}

// replay runs fn on the timed request sequence from its start, on conns
// goroutines (the HTTP phase's concurrency), until want requests that
// pick accepts are done or the budget runs out.
func (r *run) replay(w *window, want int, pick func(request) bool, fn func(i uint64, req request, root int64)) {
	var mu sync.Mutex
	next := w.firstTimed()
	taken := 0
	deadline := time.Now().Add(layerBudget)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				var i uint64
				var req request
				for {
					i, req = next, r.g.read(next)
					next++
					if pick(req) {
						break
					}
				}
				if taken >= want {
					mu.Unlock()
					return
				}
				taken++
				mu.Unlock()
				start := time.Now()
				root := r.spans.add("inproc.request", 0, int64(i), start, start)
				fn(i, req, root)
			}
		}()
	}
	wg.Wait()
}

func (r *run) layers(w *window) error {
	if r.cfg.shards > 0 {
		return r.shardLayers(w)
	}
	return r.engineLayers(w)
}

func (r *run) setBuild(secs float64, bs core.BuildStats) {
	res := &r.res
	res.set("build.s", "s", secs)
	res.set("build.partition_s", "s", float64(bs.PartitionNanos)/1e9)
	res.set("build.postings_s", "s", float64(bs.IndexNanos)/1e9)
	res.set("build.estimator_s", "s", float64(bs.EstimatorNanos)/1e9)
}

// engineLayers covers the single-index workloads: build or mapped
// open, plan.Wrap calibration, then a replay of the timed requests
// through the wrapped engine (codec and reconcile figures) and a
// layer-by-layer pass over the fresh ones.
func (r *run) engineLayers(w *window) error {
	cfg, res, sp := r.cfg, &r.res, r.spans
	var eng engine.Engine
	var err error
	d := sp.timed("build", 0, -1, func() {
		eng, err = gph.BuildEngine("gph", r.c.rows, gph.EngineOptions{Seed: buildSeed})
	})
	if err != nil {
		return err
	}
	var bs core.BuildStats
	if b, ok := eng.(interface{ BuildStats() core.BuildStats }); ok {
		bs = b.BuildStats()
	}
	r.setBuild(d.Seconds(), bs)
	// plan.Wrap calibrates the planner over the heap-built engine, as a
	// heap-served start does; a mapped engine offers no scan route and
	// skips calibration, so time the wrap here, before the mapped open.
	var wrapped engine.Engine
	d = sp.timed("plan.wrap", 0, -1, func() { wrapped, err = plan.Wrap(eng, "adaptive", cacheBytes) })
	if err != nil {
		return err
	}
	res.set("plan.calibrate_ms", "ms", ms(d))
	if cfg.mmap {
		// Serve the layers below from the mapped index, as the server
		// does; the build above only times what the saved index cost.
		var opens []float64
		for i := 0; i < 5; i++ {
			var o engine.OpenedEngine
			d := sp.timed("mmap.open", 0, -1, func() { o, err = engine.Open(r.indexPath, engine.OpenMMap) })
			if err != nil {
				return err
			}
			o.Close()
			opens = append(opens, ms(d))
		}
		res.set("open.ms", "ms", median(opens))
		o, err := engine.Open(r.indexPath, engine.OpenMMap)
		if err != nil {
			return err
		}
		defer o.Close()
		eng = o
		if wrapped, err = plan.Wrap(eng, "adaptive", cacheBytes); err != nil {
			return err
		}
	}
	for _, h := range r.g.hot {
		if h.knn() {
			wrapped.SearchKNN(h.q, h.k)
		} else {
			wrapped.Search(h.q, h.tau)
		}
	}

	// Replay: the timed sequence's range searches through Wrapped, as
	// the search handler calls it (hits and misses in the same mix).
	s := newSamples()
	r.replay(w, cfg.traceSample, func(req request) bool { return !req.knn() }, func(i uint64, req request, root int64) {
		s.add("wrapped.search", sp.timed("plan.wrapped_search", root, int64(i), func() { wrapped.Search(req.q, req.tau) }))
	})

	// Layer by layer, on fresh (cache-missing) requests.
	pl := plan.NewPlanner(plan.ModeAdaptive)
	pl.Calibrate(eng)
	ce, _ := eng.(engine.CostEstimator)
	gs, _ := eng.(engine.GrowSearcher)
	sc, scannable := eng.(engine.Scannable)
	var alpha struct {
		sync.Mutex
		cands, est float64
	}
	r.replay(w, cfg.traceSample, func(req request) bool { return req.hot < 0 }, func(i uint64, req request, root int64) {
		id := int64(i)
		if req.knn() {
			if gs == nil {
				return
			}
			var st engine.GrowStats
			s.add("knn.grow", sp.timed("knn.grow", root, id, func() { _, st, _ = gs.SearchGrow(req.q, req.k) }))
			s.count("knn.radii", float64(st.Radii))
			s.count("knn.candidates", float64(st.Candidates))
			s.count("knn.n", 1)
			return
		}
		wrapped.Search(req.q, req.tau) // cached now, if the replay stopped short of it
		s.add("cache.hit", sp.timed("cache.hit", root, id, func() { wrapped.Search(req.q, req.tau) }))
		s.add("plan.route", sp.timed("plan.route", root, id, func() { pl.Route(eng, req.q, req.tau) }))
		if ce != nil {
			s.add("gph.alloc", sp.timed("gph.alloc", root, id, func() { ce.EstimateSearchCost(req.q, req.tau) }))
		}
		var st *engine.Stats
		s.add("gph.search", sp.timed("gph.search", root, id, func() { _, st, _ = eng.SearchStats(req.q, req.tau) }))
		if st != nil {
			s.count("gph.n", 1)
			s.count("gph.alloc_ns", float64(st.AllocNanos))
			s.count("gph.total_ns", float64(st.TotalNanos()))
			s.count("gph.probe_ns", float64(st.ProbeNanos))
			s.count("gph.verify_ns", float64(st.VerifyNanos))
			s.count("gph.signatures", float64(st.Signatures))
			s.count("gph.sum_postings", float64(st.SumPostings))
			s.count("gph.candidates", float64(st.Candidates))
			s.count("gph.results", float64(st.Results))
			if !st.Scanned {
				alpha.Lock()
				alpha.cands += float64(st.Candidates)
				alpha.est += float64(st.EstimatedCN)
				alpha.Unlock()
			}
		}
		if scannable {
			buf := make([]int32, 0, 1024)
			s.add("verify.scan", sp.timed("verify.scan", root, id, func() { sc.Codes().AppendWithin(req.q, req.tau, buf) }))
		}
	})

	res.set("cache.hit_us", "us", percentile(s.us["cache.hit"], 0.5))
	res.set("plan.route_us", "us", percentile(s.us["plan.route"], 0.5))
	res.set("gph.alloc_us", "us", percentile(s.us["gph.alloc"], 0.5))
	res.set("gph.alloc_p99_us", "us", percentile(s.us["gph.alloc"], 0.99))
	res.set("gph.search_us", "us", percentile(s.us["gph.search"], 0.5))
	res.set("gph.search_p99_us", "us", percentile(s.us["gph.search"], 0.99))
	if n := s.n["gph.n"]; n > 0 {
		res.set("gph.alloc_share", "ratio", s.n["gph.alloc_ns"]/math.Max(s.n["gph.total_ns"], 1))
		res.set("gph.probe_us", "us", s.n["gph.probe_ns"]/n/1e3)
		res.set("gph.verify_us", "us", s.n["gph.verify_ns"]/n/1e3)
		for _, k := range []string{"signatures", "sum_postings", "candidates", "results"} {
			res.set("gph."+k, "count", s.n["gph."+k]/n)
		}
	}
	if alpha.est > 0 {
		res.set("gph.alpha", "ratio", alpha.cands/alpha.est)
	}
	if scannable {
		scan := percentile(s.us["verify.scan"], 0.5)
		res.set("verify.scan_us", "us", scan)
		res.set("verify.scan_ns_per_row", "ns", scan*1e3/float64(eng.Len()))
	}
	if n := s.n["knn.n"]; n > 0 {
		res.set("knn.grow_us", "us", percentile(s.us["knn.grow"], 0.5))
		res.set("knn.grow_p99_us", "us", percentile(s.us["knn.grow"], 0.99))
		res.set("knn.radii", "count", s.n["knn.radii"]/n)
		res.set("knn.candidates", "count", s.n["knn.candidates"]/n)
	}
	r.reconcile(w, s.us["wrapped.search"])
	return nil
}

// shardLayers covers the sharded update workload: the sharded build,
// then searches beside inserts and deletes against an in-process index
// with a WAL open, as the server runs them.
func (r *run) shardLayers(w *window) error {
	cfg, res, sp := r.cfg, &r.res, r.spans
	var ix *gph.ShardedIndex
	var err error
	d := sp.timed("build", 0, -1, func() {
		ix, err = gph.BuildShardedEngine("gph", r.c.rows, cfg.shards, gph.Options{
			Seed: buildSeed, PlanMode: "adaptive", CacheBytes: cacheBytes,
		})
	})
	if err != nil {
		return err
	}
	defer ix.Close()
	r.setBuild(d.Seconds(), core.BuildStats{})
	if _, err := ix.OpenWAL(filepath.Join(r.dir, "trace.wal")); err != nil {
		return err
	}
	codes := verify.Pack(r.c.rows)
	s := newSamples()
	var wmu sync.Mutex
	var live []int32
	var k uint64
	r.replay(w, cfg.traceSample, func(request) bool { return true }, func(i uint64, req request, root int64) {
		id := int64(i)
		s.add("shard.search", sp.timed("shard.search", root, id, func() { ix.Search(req.q, req.tau) }))
		buf := make([]int32, 0, 1024)
		s.add("verify.scan", sp.timed("verify.scan", root, id, func() { codes.AppendWithin(req.q, req.tau, buf) }))
		// One write per search, in the workload's insert/delete mix.
		wmu.Lock()
		op := r.g.write(k)
		k++
		var victim int32 = -1
		if op.del && len(live) > 0 {
			j := int(op.pick * float64(len(live)))
			victim = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		wmu.Unlock()
		if victim >= 0 {
			s.add("shard.delete", sp.timed("shard.delete", root, id, func() { ix.Delete(victim) }))
			return
		}
		var nid int32
		var ierr error
		s.add("shard.insert", sp.timed("shard.insert", root, id, func() { nid, ierr = ix.Insert(op.vec) }))
		if ierr == nil {
			wmu.Lock()
			live = append(live, nid)
			wmu.Unlock()
		}
	})
	for _, name := range []string{"shard.search", "shard.insert", "shard.delete"} {
		res.set(name+"_us", "us", percentile(s.us[name], 0.5))
		res.set(name+"_p99_us", "us", percentile(s.us[name], 0.99))
	}
	scan := percentile(s.us["verify.scan"], 0.5)
	res.set("verify.scan_us", "us", scan)
	res.set("verify.scan_ns_per_row", "ns", scan*1e3/float64(len(r.c.rows)))
	r.reconcile(w, s.us["shard.search"])
	return nil
}

// reconcile sets the HTTP codec figure and the attribution check.
// codec = handler mean − in-process mean for the same requests. The
// reconcile gap adds two independently measured p50s on a search's
// path — the HTTP share (client latency minus the server's own timing
// of the search call, per request) and the in-process search of the
// same requests — and compares the sum with the traced search p50.
func (r *run) reconcile(w *window, inproc []float64) {
	res := &r.res
	handler := res.Metrics["http.handler_us"].Value
	res.set("http.codec_us", "us", handler-mean(inproc))
	var client, httpShare []float64
	for _, sm := range w.reads {
		if sm.pre || sm.err != "" || sm.knn || !sm.traced || !w.timed(sm.start) {
			continue
		}
		client = append(client, float64(sm.dur.Nanoseconds())/1e3)
		httpShare = append(httpShare, float64(sm.dur.Nanoseconds())/1e3-float64(sm.micros))
	}
	p50 := percentile(client, 0.5)
	sum := percentile(httpShare, 0.5) + percentile(inproc, 0.5)
	if p50 > 0 {
		res.set("trace.reconcile_gap", "ratio", math.Abs(sum-p50)/p50)
	}
	res.note("reconcile: HTTP share p50 %.1fus + in-process search p50 %.1fus = %.1fus vs traced search p50 %.1fus",
		percentile(httpShare, 0.5), percentile(inproc, 0.5), sum, p50)
}
