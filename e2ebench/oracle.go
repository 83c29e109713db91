package main

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"gph/internal/bitvec"
)

// The oracle answers every query by brute force over the generated
// corpus with its own popcount loop, sharing no code with the engines
// it checks.

func dist(row, q []uint64) int {
	d := 0
	for w := range q {
		d += bits.OnesCount64(row[w] ^ q[w])
	}
	return d
}

// bruteRangeBatch returns, for each range query, the ascending ids of
// the corpus rows within its tau. It answers the batch in one pass
// over the corpus, a cache-sized block of rows at a time, so a large
// corpus is read from memory once per batch instead of once per query.
func bruteRangeBatch(c *corpus, reqs []request) [][]int32 {
	const block = 8192 // rows: 128–256 KiB of codes
	out := make([][]int32, len(reqs))
	n := len(c.rows)
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		rows := c.flat[lo*c.words : hi*c.words]
		for j, req := range reqs {
			qw, tau := req.q.Words(), req.tau
			if c.words == 2 {
				q0, q1 := qw[0], qw[1]
				for i := 0; i+1 < len(rows); i += 2 {
					if bits.OnesCount64(rows[i]^q0)+bits.OnesCount64(rows[i+1]^q1) <= tau {
						out[j] = append(out[j], int32(lo+i/2))
					}
				}
				continue
			}
			for r := 0; r < hi-lo; r++ {
				if dist(rows[r*c.words:(r+1)*c.words], qw) <= tau {
					out[j] = append(out[j], int32(lo+r))
				}
			}
		}
	}
	return out
}

// bruteKNN returns the k smallest distances from q, ascending, via a
// distance histogram.
func bruteKNN(c *corpus, q bitvec.Vector, k int) []int32 {
	qw := q.Words()
	hist := make([]int, c.dims+1)
	for r := 0; r < len(c.rows); r++ {
		hist[dist(c.flat[r*c.words:(r+1)*c.words], qw)]++
	}
	out := make([]int32, 0, k)
	for d := 0; d <= c.dims && len(out) < k; d++ {
		for n := hist[d]; n > 0 && len(out) < k; n-- {
			out = append(out, int32(d))
		}
	}
	return out
}

func sortedCopy(xs []int32) []int32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// parallel runs fn(i) for i in [0, n) on workers goroutines.
func parallel(workers, n int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// expectation is the oracle's answer to one request: the result count
// and the hash of the ids (range) or of the sorted distances (kNN).
type expectation struct {
	count int
	hash  uint64
}

func expectKNN(c *corpus, req request) expectation {
	d := bruteKNN(c, req.q, req.k)
	return expectation{count: len(d), hash: hashInts(d)}
}

// checkReads verifies every answered read of an immutable-index
// workload: range answers as exact id sets, kNN answers as the sorted
// multiset of the k smallest distances, with every returned id at the
// distance reported for it. It returns the number of wrong answers and
// a description of the first few.
func checkReads(c *corpus, g *gen, reads []sample, workers int) (int, []string) {
	hotWant := make([]expectation, len(g.hot))
	hotSeen := make([]bool, len(g.hot))
	type job struct {
		idx int
		req request
	}
	var jobs []job
	for i, sm := range reads {
		if sm.err != "" {
			continue
		}
		var req request
		if sm.pre {
			req = g.hot[sm.i]
		} else {
			req = g.read(sm.i)
		}
		if req.hot >= 0 {
			if !hotSeen[req.hot] {
				hotSeen[req.hot] = true
				jobs = append(jobs, job{-1 - req.hot, req})
			}
			continue
		}
		jobs = append(jobs, job{i, req})
	}
	// kNN jobs one at a time; range jobs in batches of one pass each.
	var knnJobs, rangeJobs []job
	for _, j := range jobs {
		if j.req.knn() {
			knnJobs = append(knnJobs, j)
		} else {
			rangeJobs = append(rangeJobs, j)
		}
	}
	const batch = 32
	fresh := make(map[int]expectation, len(jobs))
	var mu sync.Mutex
	record := func(j job, e expectation) {
		if j.idx < 0 {
			hotWant[-1-j.idx] = e
			return
		}
		mu.Lock()
		fresh[j.idx] = e
		mu.Unlock()
	}
	parallel(workers, len(knnJobs)+(len(rangeJobs)+batch-1)/batch, func(t int) {
		if t < len(knnJobs) {
			record(knnJobs[t], expectKNN(c, knnJobs[t].req))
			return
		}
		lo := (t - len(knnJobs)) * batch
		group := rangeJobs[lo:min(lo+batch, len(rangeJobs))]
		reqs := make([]request, len(group))
		for i, j := range group {
			reqs[i] = j.req
		}
		for i, ids := range bruteRangeBatch(c, reqs) {
			record(group[i], expectation{count: len(ids), hash: hashInts(ids)})
		}
	})
	wrong := 0
	var why []string
	for i, sm := range reads {
		if sm.err != "" {
			continue
		}
		var req request
		if sm.pre {
			req = g.hot[sm.i]
		} else {
			req = g.read(sm.i)
		}
		var want expectation
		if req.hot >= 0 {
			want = hotWant[req.hot]
		} else {
			want = fresh[i]
		}
		msg := ""
		switch {
		case sm.count != want.count || sm.hash != want.hash:
			msg = fmt.Sprintf("got %d results, oracle %d", sm.count, want.count)
		case sm.knn:
			seen := map[int32]bool{}
			for j, id := range sm.ids {
				if id < 0 || int(id) >= len(c.rows) || seen[id] {
					msg = fmt.Sprintf("bad or repeated id %d", id)
					break
				}
				seen[id] = true
				if d := dist(c.flat[int(id)*c.words:(int(id)+1)*c.words], req.q.Words()); int32(d) != sm.dists[j] {
					msg = fmt.Sprintf("id %d reported at distance %d, is at %d", id, sm.dists[j], d)
					break
				}
			}
		}
		if msg != "" {
			wrong++
			if len(why) < 5 {
				kind := fmt.Sprintf("tau=%d", req.tau)
				if req.knn() {
					kind = fmt.Sprintf("k=%d", req.k)
				}
				why = append(why, fmt.Sprintf("read %d (%s): %s", sm.i, kind, msg))
			}
		}
	}
	return wrong, why
}

// checkUpdates verifies the searches of an update workload against
// the live set the writer tracked: base rows, minus deletes, plus
// inserted id → vector. A search that ran over [start, end] must
// return every id within tau that was surely live throughout (insert
// acknowledged before start, delete not sent before end) and may
// return only ids within tau that were possibly live at some point
// (insert sent before end, delete not acknowledged before start).
// Writes are checked by their own acknowledgements.
func checkUpdates(c *corpus, g *gen, reads []sample, writes []wsample, workers int) (int, []string) {
	type life struct {
		id              int32
		vec             []uint64
		insSent, insAck time.Time
		delSent, delAck time.Time // zero when never deleted
	}
	var lives []life
	at := map[int32]int{}
	for _, w := range writes {
		if w.err != "" {
			continue
		}
		if !w.del {
			at[w.id] = len(lives)
			lives = append(lives, life{id: w.id, vec: w.vec.Words(), insSent: w.sent, insAck: w.done})
		} else if i, ok := at[w.id]; ok {
			lives[i].delSent, lives[i].delAck = w.sent, w.done
		}
	}
	wrongs := make([]string, len(reads))
	parallel(workers, len(reads), func(i int) {
		sm := reads[i]
		if sm.err != "" {
			return
		}
		req := g.read(sm.i)
		end := sm.start.Add(sm.dur)
		got := make(map[int32]bool, len(sm.ids))
		for _, id := range sm.ids {
			got[id] = true
		}
		for _, id := range bruteRangeBatch(c, []request{req})[0] {
			if !got[id] {
				wrongs[i] = fmt.Sprintf("read %d: base row %d within tau=%d missing", sm.i, id, req.tau)
				return
			}
			delete(got, id)
		}
		qw := req.q.Words()
		for _, l := range lives {
			if dist(l.vec, qw) > req.tau {
				continue
			}
			surely := l.insAck.Before(sm.start) && (l.delSent.IsZero() || l.delSent.After(end))
			if surely && !got[l.id] {
				wrongs[i] = fmt.Sprintf("read %d: inserted id %d within tau=%d missing", sm.i, l.id, req.tau)
				return
			}
			possibly := l.insSent.Before(end) && (l.delAck.IsZero() || l.delAck.After(sm.start))
			if got[l.id] && !possibly {
				wrongs[i] = fmt.Sprintf("read %d: id %d returned while not live", sm.i, l.id)
				return
			}
			delete(got, l.id)
		}
		for id := range got {
			wrongs[i] = fmt.Sprintf("read %d: id %d returned, not within tau=%d of any live vector", sm.i, id, req.tau)
			return
		}
	})
	wrong := 0
	var why []string
	for _, w := range wrongs {
		if w != "" {
			wrong++
			if len(why) < 5 {
				why = append(why, w)
			}
		}
	}
	return wrong, why
}
