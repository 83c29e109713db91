package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"gph/datagen"
	"gph/internal/bitvec"
)

// config fixes one workload: its corpus, server mode and traffic mix.
// The corpus is fixed per workload; the traffic derives from the
// run's seed and these fields.
type config struct {
	name string
	gen  string // datagen generator for the corpus
	n    int    // corpus size

	taus  []int // range thresholds, drawn uniformly per request
	flips int   // a query is a corpus row with this many bits flipped
	conns int   // closed-loop read connections; the writer has one more

	// Hot-set workloads: about nine in ten reads repeat a Zipf-ranked
	// hot set issued once before timing; every freshEvery-th read is a
	// fresh query. hotRange/hotKNN size the two pools.
	freshEvery int
	hotRange   int
	hotKNN     int
	zipfS      float64
	knnK       int

	mmap bool // save the index and serve it with -index … -mmap

	// Sharded update workloads.
	shards      int
	writeRate   float64 // writes per second, open loop
	deleteShare float64
	preWrites   int // writes issued and compacted before the load

	setups      int // server starts per run; setup_s is their median
	warmup      int // untimed closed-loop requests before timing
	traceSample int // queries replayed in-process by a traced run
}

// Scaled-down variants keep each workload's shape (mix, modes, oracle)
// at a size the benchmark's own tests run in seconds.
func workloads(small bool) []config {
	ws := []config{
		{
			name: "range_unique_1m", gen: "sift", n: 1_000_000,
			taus: []int{2, 4, 8, 12, 16, 24}, flips: 4, conns: 1,
			setups: 1, warmup: 64, traceSample: 240,
		},
		{
			name: "hot_repeat_mmap", gen: "uqvideo", n: 250_000,
			taus: []int{8, 16, 24}, flips: 4, conns: 1,
			freshEvery: 10, hotRange: 400, hotKNN: 100, zipfS: 1.1, knnK: 10,
			mmap: true, setups: 21, traceSample: 400,
		},
		{
			name: "update_mix_sharded", gen: "sift", n: 100_000,
			taus: []int{4, 8}, flips: 4, conns: 1,
			shards: 4, writeRate: 100, deleteShare: 0.2, preWrites: 200,
			setups: 1, warmup: 64, traceSample: 300,
		},
	}
	if small {
		ws[0].n = 20_000
		ws[0].traceSample = 60
		ws[1].n = 5_000
		ws[1].hotRange, ws[1].hotKNN = 60, 20
		ws[1].setups = 2
		ws[1].traceSample = 60
		ws[2].n = 4_000
		ws[2].traceSample = 60
	}
	return ws
}

// loadConns is the size of the load's connection pool: the readers'
// connections, plus one for the open-loop writer, so a write waits for
// no search and a search for no WAL fsync.
func (c config) loadConns() int {
	if c.writeRate > 0 {
		return c.conns + 1
	}
	return c.conns
}

func workloadNames() []string {
	var names []string
	for _, c := range workloads(false) {
		names = append(names, c.name)
	}
	return names
}

func lookupWorkload(name string, small bool) (config, bool) {
	for _, c := range workloads(small) {
		if c.name == name {
			return c, true
		}
	}
	return config{}, false
}

// corpus is a generated dataset plus a flat copy of its words for the
// oracle's brute-force scans.
type corpus struct {
	dims  int
	words int // uint64 words per row
	rows  []bitvec.Vector
	flat  []uint64
}

func newCorpus(cfg config, seed uint64) (*corpus, error) {
	ds, err := datagen.ByName(cfg.gen, cfg.n, int64(seed))
	if err != nil {
		return nil, err
	}
	return corpusOf(ds), nil
}

func corpusOf(ds *datagen.Dataset) *corpus {
	c := &corpus{dims: ds.Dims, rows: ds.Vectors}
	c.words = (ds.Dims + 63) / 64
	c.flat = make([]uint64, 0, len(ds.Vectors)*c.words)
	for _, v := range ds.Vectors {
		c.flat = append(c.flat, v.Words()...)
	}
	return c
}

// request is one read: a range query (/search) or a kNN query (/knn).
type request struct {
	q   bitvec.Vector
	tau int // range threshold; -1 for kNN
	k   int
	hot int // hot-set index, -1 for a fresh query
}

func (r request) knn() bool { return r.tau < 0 }

func (r request) path() string {
	if r.knn() {
		return "/knn?q=" + r.q.String() + "&k=" + strconv.Itoa(r.k)
	}
	return "/search?q=" + r.q.String() + "&tau=" + strconv.Itoa(r.tau)
}

// gen derives requests from the seed: request i depends only on (seed,
// i), so a traced run and an untraced run of one seed see identical
// inputs, and the oracle can regenerate any of them.
type gen struct {
	cfg  config
	seed uint64
	c    *corpus
	mul  uint64 // row permutation: row(i) = (mul·i + add) mod n
	add  uint64
	hot  []request
}

func newGen(cfg config, seed uint64, c *corpus) *gen {
	g := &gen{cfg: cfg, seed: seed, c: c, mul: 1_000_003, add: seed * 7_919}
	for g.mul%2 == 0 || gcd(g.mul, uint64(cfg.n)) != 1 {
		g.mul += 2
	}
	for h := 0; h < cfg.hotRange+cfg.hotKNN; h++ {
		r := g.query(uint64(h), uint64(h))
		// Thresholds go round the Zipf ranks, so each τ's share of the
		// repeats is fixed by construction rather than by which τ the
		// seed gives the few top ranks.
		r.tau = cfg.taus[h%len(cfg.taus)]
		if h >= cfg.hotRange {
			r.tau, r.k = -1, cfg.knnK
		}
		r.hot = h
		g.hot = append(g.hot, r)
	}
	return g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *gen) rng(stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed^stream*0x9e3779b97f4a7c15, i))
}

// row maps a request index to a distinct corpus row (distinct for
// indices below n, so range_unique_1m never repeats a query).
func (g *gen) row(i uint64) int {
	return int((g.mul*i + g.add) % uint64(g.cfg.n))
}

// perturb returns corpus row r with flips distinct bits flipped.
func (g *gen) perturb(r int, flips int, rng *rand.Rand) bitvec.Vector {
	v := g.c.rows[r].Clone()
	for _, b := range rng.Perm(g.c.dims)[:flips] {
		v.Flip(b)
	}
	return v
}

// query builds the range query with permutation index pi, using random
// stream i for its flips and threshold.
func (g *gen) query(pi, i uint64) request {
	rng := g.rng(1, i^pi<<32)
	return request{
		q:   g.perturb(g.row(pi), g.cfg.flips, rng),
		tau: g.cfg.taus[rng.IntN(len(g.cfg.taus))],
		hot: -1,
	}
}

// read returns timed request i. Unique workloads draw every query
// fresh; hot-set workloads repeat the hot set except on every
// freshEvery-th request, so the hit share is fixed by construction.
// Within a cycle of ten hot-set workloads issue two kNN repeats, seven
// range repeats and one fresh query (a kNN one in five times).
func (g *gen) read(i uint64) request {
	if g.cfg.freshEvery == 0 {
		return g.query(i, i)
	}
	cycle := uint64(g.cfg.freshEvery)
	if i%cycle == cycle-1 {
		j := i / cycle
		r := g.query(uint64(len(g.hot))+j, j)
		if j%5 == 4 {
			r.tau, r.k = -1, g.cfg.knnK
		}
		return r
	}
	rng := g.rng(2, i)
	pool, size := 0, g.cfg.hotRange
	if m := i % cycle; m == 0 || m == cycle/2 {
		pool, size = g.cfg.hotRange, g.cfg.hotKNN
	}
	z := rand.NewZipf(rng, g.cfg.zipfS, 1, uint64(size-1))
	return g.hot[pool+int(z.Uint64())]
}

// writeOp is one update of the open-loop writer: a delete of a live
// inserted id (chosen by pick, a fraction of the live list) or, when
// none is live, an insert of vec.
type writeOp struct {
	del  bool
	vec  bitvec.Vector
	pick float64
}

// write returns the writer's k-th operation; the oracle regenerates
// inserted vectors from k.
func (g *gen) write(k uint64) writeOp {
	rng := g.rng(3, k)
	op := writeOp{vec: g.perturb(rng.IntN(g.cfg.n), g.cfg.flips, rng)}
	op.del = rng.Float64() < g.cfg.deleteShare
	op.pick = rng.Float64()
	return op
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs
// is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
