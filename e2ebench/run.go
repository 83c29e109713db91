package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"gph"
	"gph/datagen"
)

const (
	cacheBytes = 64 << 20 // gph-server's default -cache-size

	// The corpus and the index build are fixed per workload; the run's
	// seed drives the traffic (queries, thresholds, hot set, Zipf
	// draws, writes). GPH's partition refinement lands a corpus in one
	// of a few discrete index shapes — 88, 100 or 114 MB for three 1M
	// SIFT-like corpora — so a corpus drawn per seed would make those
	// jumps, not the code under test, the run-to-run spread.
	corpusSeed = 1
	buildSeed  = 42 // gph-server's default -seed
)

// run is one invocation: one workload, one seed.
type run struct {
	cfg       config
	seed      uint64
	seconds   float64
	traced    bool
	serverBin string
	dir       string
	cacheDir  string // inputs that do not depend on the seed (see cached)

	c     *corpus
	g     *gen
	res   result
	spans *spanLog

	indexPath string // hot_repeat_mmap: the saved index the server maps
}

// window is what one timed phase observed.
type window struct {
	t0, t1        time.Time
	before, after snapshot
	reads         []sample
	writes        []wsample
	polls         []statsDoc // update workloads: /stats during the window
	warm          time.Duration
	compactMs     float64 // update workloads: ms of the compaction before the timed phase
}

func (r *run) execute() (*result, error) {
	cfg := r.cfg
	if r.traced {
		r.spans = newSpanLog()
	}
	// Inputs: the corpus file (and the saved index), made before
	// and outside every timed figure.
	genStart := time.Now()
	dataPath, err := r.cached(fmt.Sprintf("%s-%d-%d.ds", cfg.gen, cfg.n, corpusSeed), func(path string) error {
		ds, err := datagen.ByName(cfg.gen, cfg.n, corpusSeed)
		if err != nil {
			return err
		}
		return saveTo(path, ds.Save)
	})
	if err != nil {
		return nil, err
	}
	ds, err := loadDataset(dataPath)
	if err != nil {
		return nil, err
	}
	c := corpusOf(ds)
	r.c, r.g = c, newGen(cfg, r.seed, c)
	args, err := r.prepareInputs(dataPath)
	if err != nil {
		return nil, err
	}
	r.res.note("workload %s seed %d: corpus %d × %d-bit %s-like vectors (corpus seed %d, %.1f MiB of codes), inputs ready in %.1fs",
		cfg.name, r.seed, cfg.n, c.dims, cfg.gen, corpusSeed, float64(len(c.flat)*8)/(1<<20), time.Since(genStart).Seconds())

	// Setup: process start to first 200 from /healthz, cfg.setups
	// times. Half the starts run before the load and half after it, so
	// their median samples the host's speed at both ends of the run;
	// the last server started before the load serves it.
	var setups []float64
	start := func(i int) (*server, error) {
		os.Remove(filepath.Join(r.dir, "index.wal"))
		s, err := startServer(r.serverBin, filepath.Join(r.dir, fmt.Sprintf("server-%d.log", i)), cfg.loadConns(), args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		return s, nil
	}
	before := (cfg.setups + 1) / 2
	var srv *server
	for i := 0; i < before; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = start(i); err != nil {
			return nil, err
		}
	}
	w, err := r.drive(srv)
	srv.stop()
	if err != nil {
		return nil, err
	}
	for i := before; i < cfg.setups; i++ {
		s, err := start(i)
		if err != nil {
			return nil, err
		}
		s.stop()
	}
	r.report(w, setups)
	if r.traced {
		if err := r.layers(w); err != nil {
			return nil, err
		}
		if err := r.spans.write(filepath.Join(r.dir, fmt.Sprintf("trace-%d.jsonl", r.seed))); err != nil {
			return nil, err
		}
	}
	return &r.res, nil
}

// prepareInputs returns the server's arguments: the corpus file, or
// for mapped serving the index saved from it.
func (r *run) prepareInputs(dataPath string) ([]string, error) {
	cfg := r.cfg
	if cfg.mmap {
		var err error
		r.indexPath, err = r.cached(fmt.Sprintf("%s-%d-%d-build%d.gph", cfg.gen, cfg.n, corpusSeed, buildSeed), func(path string) error {
			eng, err := gph.BuildEngine("gph", r.c.rows, gph.EngineOptions{Seed: buildSeed})
			if err != nil {
				return err
			}
			err = saveTo(path, eng.Save)
			// Hand the build's memory back before the server starts.
			eng = nil
			runtime.GC()
			debug.FreeOSMemory()
			return err
		})
		if err != nil {
			return nil, err
		}
		return []string{"-index", r.indexPath, "-mmap"}, nil
	}
	args := []string{"-data", dataPath}
	if cfg.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(cfg.shards), "-wal", filepath.Join(r.dir, "index.wal"))
	}
	return args, nil
}

// cached returns the path of a seed-independent input — the corpus
// file, hot_repeat_mmap's saved index — making it with mk on first
// use. The cache directory is named after a digest of this binary,
// which embeds the generator and the index code, so a rebuilt
// benchmark never reads an input an older build made.
func (r *run) cached(name string, mk func(path string) error) (string, error) {
	path := filepath.Join(r.cacheDir, name)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(r.cacheDir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := mk(tmp); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, os.Rename(tmp, path)
}

func loadDataset(path string) (*datagen.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datagen.Load(bufio.NewReaderSize(f, 1<<20))
}

func saveTo(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	// Written back now, not by the kernel during a timed phase.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drive runs the load against s and brackets the timed phase with
// snapshots of /stats, /metrics and /proc.
func (r *run) drive(s *server) (*window, error) {
	cfg := r.cfg
	l := &load{s: s, g: r.g, keepIDs: cfg.shards > 0, traced: r.traced, stop: make(chan struct{}), spans: r.spans}
	w := &window{}
	if len(r.g.hot) > 0 {
		l.preIssue(cfg.conns)
	}
	if cfg.shards > 0 {
		// The writer's first operations go in before the load, and one
		// compaction folds them: the timed phase starts from freshly
		// rebuilt shards and runs beside no rebuild (README.md,
		// steadiness hazards).
		l.preWrite(cfg.preWrites)
		if err := s.compact(); err != nil {
			return nil, err
		}
		var err error
		if w.compactMs, err = waitCompaction(s, 60*time.Second); err != nil {
			return nil, err
		}
	}
	warmStart := time.Now()
	l.startReaders(cfg.conns)
	if cfg.writeRate > 0 {
		l.startWriter(cfg.writeRate)
	}
	var err error
	defer func() {
		if err != nil {
			l.halt()
		}
	}()
	// Warm-up: a fixed number of reads.
	for l.done.Load() < int64(cfg.warmup) {
		time.Sleep(5 * time.Millisecond)
	}
	w.warm = time.Since(warmStart)
	if w.before, err = s.snapshot(); err != nil {
		return nil, err
	}
	w.t0 = time.Now()
	deadline := w.t0.Add(time.Duration(r.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		step := time.Until(deadline)
		if cfg.shards > 0 {
			step = min(step, 250*time.Millisecond)
			var st statsDoc
			if err = s.getJSON("/stats", &st); err != nil {
				return nil, err
			}
			w.polls = append(w.polls, st)
		}
		time.Sleep(step)
	}
	w.t1 = time.Now()
	if w.after, err = s.snapshot(); err != nil {
		return nil, err
	}
	l.halt()
	// Readers append per connection; put the reads back in the order
	// they were sent, which the chunk p99s rely on.
	w.reads, w.writes = l.reads, l.writes
	slices.SortFunc(w.reads, func(a, b sample) int { return a.start.Compare(b.start) })
	return w, nil
}

func (w *window) timed(t time.Time) bool { return !t.Before(w.t0) && t.Before(w.t1) }

// timeline counts the answered reads started in each whole second of
// the timed phase. The run prints it, so a stalled second or a gap
// between compactions shows in the run's record.
func (w *window) timeline() []int {
	counts := make([]int, max(int(w.t1.Sub(w.t0).Seconds()), 1))
	for _, sm := range w.reads {
		if sm.pre || sm.err != "" || !w.timed(sm.start) {
			continue
		}
		if i := int(sm.start.Sub(w.t0).Seconds()); i < len(counts) {
			counts[i]++
		}
	}
	return counts
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// p50 is the median latency of xs; xs is left as it is.
func p50(xs []float64) float64 { return percentile(slices.Clone(xs), 0.5) }

// p99 is the 99th percentile of xs, pooled over the whole timed phase;
// xs is left as it is.
func p99(xs []float64) float64 { return percentile(slices.Clone(xs), 0.99) }

// chunkP99s are the p99s of consecutive chunks of 1000 samples of xs,
// in the order they were sent (the last chunk takes the remainder). The
// run prints them beside the pooled p99, so a tail that comes from one
// burst of slow requests shows as one high chunk.
func chunkP99s(xs []float64) []float64 {
	const chunk = 1000
	var tails []float64
	for lo := 0; lo+chunk <= len(xs); lo += chunk {
		hi := lo + chunk
		if len(xs)-hi < chunk {
			hi = len(xs)
		}
		tails = append(tails, percentile(slices.Clone(xs[lo:hi]), 0.99))
	}
	return tails
}

// latencies splits the timed, answered reads by kind, in the order
// they were sent.
func (w *window) latencies(traced int) (search, knn []float64) {
	for _, sm := range w.reads {
		if sm.pre || sm.err != "" || !w.timed(sm.start) {
			continue
		}
		if traced >= 0 && sm.traced != (traced == 1) {
			continue
		}
		if sm.knn {
			knn = append(knn, ms(sm.dur))
		} else {
			search = append(search, ms(sm.dur))
		}
	}
	return search, knn
}

// pctNote reports how many samples lie behind a pooled p99.
func pctNote(name string, xs []float64) string {
	beyond := len(xs) / 100
	ok := "ok"
	if beyond < 10 {
		ok = "TOO FEW: fewer than 10 samples beyond it"
	}
	line := fmt.Sprintf("samples %s: %d; pooled p99 with %d beyond it (%s)", name, len(xs), beyond, ok)
	if tails := chunkP99s(xs); len(tails) > 1 {
		line += fmt.Sprintf("; p99 of each 1000 in send order, ms: %s", fmtList(tails))
	}
	return line
}

func fmtList(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", x)
	}
	return out
}

// report checks every answer against the oracle and fills the
// end-to-end metrics (untraced run) or the per-layer metrics' HTTP,
// plan, cache and shard parts (traced run).
func (r *run) report(w *window, setups []float64) {
	cfg, res := r.cfg, &r.res
	workers := runtime.GOMAXPROCS(0)
	checkStart := time.Now()
	var wrong int
	var why []string
	if cfg.shards > 0 {
		wrong, why = checkUpdates(r.c, r.g, w.reads, w.writes, workers)
	} else {
		wrong, why = checkReads(r.c, r.g, w.reads, workers)
	}
	refused := 0
	for _, sm := range w.reads {
		if sm.err != "" {
			refused++
			if len(why) < 8 {
				why = append(why, fmt.Sprintf("read %d: %s", sm.i, sm.err))
			}
		}
	}
	for _, ws := range w.writes {
		if ws.err != "" {
			refused++
			if len(why) < 8 {
				why = append(why, fmt.Sprintf("write %d: %s", ws.k, ws.err))
			}
		}
	}
	res.Attempted = int64(len(w.reads) + len(w.writes))
	res.Failed = int64(wrong + refused)
	res.Correct = res.Failed == 0
	for _, y := range why {
		res.note("FAILED %s", y)
	}
	failedRatio := float64(res.Failed) / float64(max(res.Attempted, 1))
	res.note("oracle: %d attempted, %d refused or errored, %d wrong (failed_ratio %.6f), checked in %.1fs",
		res.Attempted, refused, wrong, failedRatio, time.Since(checkStart).Seconds())

	search, knn := w.latencies(-1)
	answered := len(search) + len(knn)
	perSecond := w.timeline()
	var writeLat, lag []float64
	for _, ws := range w.writes {
		if ws.err == "" && w.timed(ws.due) {
			writeLat = append(writeLat, ms(ws.done.Sub(ws.due)))
			lag = append(lag, ms(ws.sent.Sub(ws.due)))
		}
	}
	b, a := w.before, w.after
	res.note("%s", pctNote("search", search))
	res.note("search latency deciles, ms: %s", deciles(search))
	if len(knn) > 0 {
		res.note("%s", pctNote("knn", knn))
	}
	if len(writeLat) > 0 {
		res.note("%s", pctNote("write", writeLat))
	}
	if len(cfg.taus) > 1 {
		res.note("%s", r.byTau(w))
	}
	res.note("setup_s per start: %v (median reported)", setups)
	res.note("reads started in each second of the timed phase: %v", perSecond)
	r.describe(w, a)

	if a.stats.Planner != nil && b.stats.Planner != nil {
		pa, pb := a.stats.Planner, b.stats.Planner
		res.note("planner: calibrated=%v estimate_nanos=%.0f scan_nanos_per_row=%.3f routed index=%d scan=%d (timed phase)",
			pa.Calibrated, pa.EstimateNanos, pa.ScanNanosPerRow, pa.RoutedIndex-pb.RoutedIndex, pa.RoutedScan-pb.RoutedScan)
		hits, misses := pa.Cache.Hits-pb.Cache.Hits, pa.Cache.Misses-pb.Cache.Misses
		res.note("cache: %d hits, %d misses, %d evictions, %d entries / %d bytes of %d (timed phase)",
			hits, misses, pa.Cache.Evictions-pb.Cache.Evictions, pa.Cache.Entries, pa.Cache.Bytes, pa.Cache.MaxBytes)
	}

	if !r.traced {
		res.set("setup_s", "s", median(setups))
		res.set("search_p50_ms", "ms", p50(search))
		res.set("search_p99_ms", "ms", p99(search))
		res.set("read_qps", "1/s", float64(answered)/w.t1.Sub(w.t0).Seconds())
		res.set("index_mb", "MB", float64(a.stats.SizeBytes)/(1<<20))
	}
	// End-to-end figures without a bound (see README.md): an untraced
	// run prints them as text, a traced run as metrics.
	res.set("peak_rss_mb", "MB", float64(a.proc.hwmKB)/1024)
	res.set("knn_p50_ms", "ms", p50(knn))
	res.set("knn_p99_ms", "ms", p99(knn))
	res.set("write_p50_ms", "ms", p50(writeLat))
	res.set("write_p99_ms", "ms", p99(writeLat))
	res.set("failed_ratio", "ratio", failedRatio)
	res.set("search_samples", "count", float64(len(search)))
	res.set("knn_samples", "count", float64(len(knn)))
	res.set("write_samples", "count", float64(len(writeLat)))
	if !r.traced {
		return
	}

	// Traced run: the HTTP-phase layer figures. Whole ten-request
	// cycles alternate traced and untraced, so their p50s compare like
	// with like; the overhead is the traced cycles' excess.
	tracedSearch, _ := w.latencies(1)
	plainSearch, _ := w.latencies(0)
	res.set("trace.overhead", "ratio", p50(tracedSearch)/p50(plainSearch)-1)
	res.set("loadgen.lag_p99_ms", "ms", p99(lag))

	const h = `{handler="search"}`
	dSum := a.metrics["gph_request_duration_seconds_sum"+h] - b.metrics["gph_request_duration_seconds_sum"+h]
	dCount := a.metrics["gph_request_duration_seconds_count"+h] - b.metrics["gph_request_duration_seconds_count"+h]
	handlerUS := 0.0
	if dCount > 0 {
		handlerUS = dSum / dCount * 1e6
	}
	res.set("http.handler_us", "us", handlerUS)
	res.set("http.wire_us", "us", mean(search)*1e3-handlerUS)

	routed := func(route string) float64 {
		k := `gph_plan_routed_total{route="` + route + `"}`
		return a.metrics[k] - b.metrics[k]
	}
	res.set("plan.route_index", "count", routed("index"))
	res.set("plan.route_scan", "count", routed("scan"))
	res.set("plan.calibrated", "bool", a.metrics["gph_plan_calibrated"])
	if p := a.stats.Planner; p != nil {
		res.set("plan.estimate_us", "us", p.EstimateNanos/1e3)
		res.set("plan.scan_ns_per_row", "ns", p.ScanNanosPerRow)
	}
	hits := a.metrics["gph_cache_hits_total"] - b.metrics["gph_cache_hits_total"]
	misses := a.metrics["gph_cache_misses_total"] - b.metrics["gph_cache_misses_total"]
	if hits+misses > 0 {
		res.set("cache.hit_ratio", "ratio", hits/(hits+misses))
	}
	res.set("cache.evictions", "count", a.metrics["gph_cache_evictions_total"]-b.metrics["gph_cache_evictions_total"])
	res.set("mmap.minor_faults", "count", float64(a.proc.minflt-b.proc.minflt))
	res.set("mmap.major_faults", "count", float64(a.proc.majflt-b.proc.majflt))
	res.set("server.cpu_s", "s", (a.proc.cpu - b.proc.cpu).Seconds())
	res.set("loadgen.cpu_s", "s", (a.selfCPU - b.selfCPU).Seconds())

	if cfg.shards > 0 {
		cs := w.compactions()
		res.set("shard.compactions", "count", float64(a.stats.Compaction.Runs))
		res.set("shard.compact_ms", "ms", w.compactMs)
		res.set("shard.delta_peak", "count", float64(cs.deltaPeak))
		if cs.acked > 0 {
			res.set("wal.bytes_per_update", "B", float64(a.stats.WALBytes-b.stats.WALBytes)/float64(cs.acked))
		}
	}
}

// waitCompaction polls /stats until a compaction has finished and none
// is running, returning the last one's duration in ms.
func waitCompaction(s *server, limit time.Duration) (float64, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var st statsDoc
		if err := s.getJSON("/stats", &st); err != nil {
			return 0, err
		}
		if st.Compaction == nil {
			return 0, fmt.Errorf("/stats reports no compaction status")
		}
		if st.Compaction.Runs > 0 && !st.Compaction.Running {
			return float64(st.Compaction.LastMillis), nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, fmt.Errorf("compaction did not finish within %v", limit)
}

// compactionStats summarises the shards over the timed phase.
type compactionStats struct {
	runs      int64 // compactions finished in the window (none is asked for)
	deltaPeak int   // largest shard delta + tombstones polled
	acked     int   // writes acknowledged in the window
}

func (w *window) compactions() compactionStats {
	var cs compactionStats
	b, a := w.before.stats, w.after.stats
	if b.Compaction == nil || a.Compaction == nil {
		return cs
	}
	cs.runs = a.Compaction.Runs - b.Compaction.Runs
	for _, st := range append(w.polls, a) {
		for _, sh := range st.Shards {
			cs.deltaPeak = max(cs.deltaPeak, sh.Delta+sh.Tombstones)
		}
	}
	for _, ws := range w.writes {
		if ws.err == "" && ws.done.After(w.before.at) && ws.done.Before(w.after.at) {
			cs.acked++
		}
	}
	return cs
}

// describe records the workload's sizes next to its results, relative
// to the 64 MiB result cache.
func (r *run) describe(w *window, a snapshot) {
	cfg, res := r.cfg, &r.res
	res.note("index: %d bytes (%s open), timed phase %.2fs after %.2fs warm-up, %d read connections, %d in all",
		a.stats.SizeBytes, a.stats.OpenMode, w.t1.Sub(w.t0).Seconds(), w.warm.Seconds(), cfg.conns, cfg.loadConns())
	switch {
	case cfg.freshEvery > 0:
		var bytes int64
		if a.stats.Planner != nil {
			bytes = a.stats.Planner.Cache.Bytes
		}
		res.note("hot set: %d queries (%d range, %d kNN k=%d, Zipf s=%.2f), repeat share %.2f by construction; cache holds %d bytes after the run, %.2f%% of its %d MiB budget (the hot set fits)",
			len(r.g.hot), cfg.hotRange, cfg.hotKNN, cfg.knnK, cfg.zipfS, 1-1/float64(cfg.freshEvery),
			bytes, 100*float64(bytes)/cacheBytes, cacheBytes>>20)
	case cfg.writeRate > 0:
		cs := w.compactions()
		res.note("compaction: one before the load, folding the first %d writes in %.0f ms; %d finished in the timed phase; largest shard backlog %d",
			cfg.preWrites, w.compactMs, cs.runs, cs.deltaPeak)
		res.note("writes: %.0f/s open loop (%.0f%% deletes of inserted ids), %d shards, explicit compaction only; repeat share 0 (every search unique)",
			cfg.writeRate, 100*cfg.deleteShare, cfg.shards)
	default:
		res.note("repeat share 0: every query unique (distinct corpus rows), so the %d MiB cache never hits and only pays its insert", cacheBytes>>20)
	}
	res.note("taus %v, queries are corpus rows with %d bits flipped", cfg.taus, cfg.flips)
}

// byTau reports each threshold's share of the timed searches and its
// p50, so a p50 or p99 that sits on the edge between two τ classes
// shows in the run's record.
func (r *run) byTau(w *window) string {
	lat := map[int][]float64{}
	total := 0
	for _, sm := range w.reads {
		if sm.pre || sm.err != "" || sm.knn || !w.timed(sm.start) {
			continue
		}
		tau := r.g.read(sm.i).tau
		lat[tau] = append(lat[tau], ms(sm.dur))
		total++
	}
	line := "search by tau (share, p50 ms):"
	for _, tau := range r.cfg.taus {
		xs := lat[tau]
		line += fmt.Sprintf(" %d: %.3f %.3f;", tau, float64(len(xs))/float64(max(total, 1)), p50(xs))
	}
	return line
}

// deciles prints p10 … p90 of xs, so a p50 sitting between two latency
// modes shows in the run's record.
func deciles(xs []float64) string {
	xs = slices.Clone(xs)
	out := ""
	for d := 1; d <= 9; d++ {
		out += fmt.Sprintf(" %.3f", percentile(xs, float64(d)/10))
	}
	return out
}
