package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gph/internal/bitvec"
)

// sample is one completed read.
type sample struct {
	i      uint64 // request index (hot-set pre-issue: hot index, pre set)
	pre    bool   // hot-set pre-issue, before timing
	knn    bool
	start  time.Time
	dur    time.Duration
	err    string // transport error or non-200 status; "" when answered
	count  int    // results returned
	hash   uint64 // hash of the returned ids (range) or distances (kNN)
	micros int64  // the server's own timing of the search call
	ids    []int32
	dists  []int32
	traced bool // a traced run records a span for this request
}

// wsample is one completed write of the open-loop writer.
type wsample struct {
	k               uint64
	del             bool
	id              int32
	vec             bitvec.Vector // insert payload
	due, sent, done time.Time
	err             string
}

type searchBody struct {
	Results   []int32 `json:"results"`
	Distances []int32 `json:"distances"`
	Micros    int64   `json:"micros"`
}

func hashInts(xs []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	return h
}

// do issues one read and decodes its answer (after the clock stops).
func (s *server) do(req request, keepIDs bool) sample {
	sm := sample{knn: req.knn(), start: time.Now()}
	resp, err := s.client.Get(s.base + req.path())
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	sm.dur = time.Since(sm.start)
	switch {
	case err != nil:
		sm.err = err.Error()
		return sm
	case resp.StatusCode != http.StatusOK:
		sm.err = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		return sm
	}
	var b searchBody
	if err := json.Unmarshal(body, &b); err != nil {
		sm.err = "decoding: " + err.Error()
		return sm
	}
	sm.count, sm.micros = len(b.Results), b.Micros
	if sm.knn {
		sm.hash = hashInts(sortedCopy(b.Distances))
	} else {
		sm.hash = hashInts(b.Results)
	}
	if keepIDs || sm.knn {
		sm.ids, sm.dists = b.Results, b.Distances
	}
	return sm
}

func (s *server) post(path string, v any) (map[string]json.RawMessage, error) {
	b, _ := json.Marshal(v)
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	var out map[string]json.RawMessage
	return out, json.Unmarshal(body, &out)
}

// load drives one server: conns closed-loop readers and, for update
// workloads, one open-loop writer. It runs until stop is closed.
type load struct {
	s       *server
	g       *gen
	keepIDs bool
	traced  bool
	next    atomic.Uint64 // next read index
	done    atomic.Int64  // reads completed
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	reads   []sample
	writes  []wsample
	// The writer's state, used by one goroutine at a time: preWrite,
	// then the open-loop writer.
	nextWrite uint64
	live      []int32 // inserted ids not yet deleted
	spans     *spanLog
}

func (l *load) startReaders(conns int) {
	for c := 0; c < conns; c++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			var mine []sample
			for {
				select {
				case <-l.stop:
					l.mu.Lock()
					l.reads = append(l.reads, mine...)
					l.mu.Unlock()
					return
				default:
				}
				i := l.next.Add(1) - 1
				req := l.g.read(i)
				sm := l.s.do(req, l.keepIDs)
				sm.i = i
				// Whole cycles of ten alternate, so traced and untraced
				// requests see the same hit/miss and kNN mix.
				sm.traced = l.traced && (i/10)%2 == 0
				if sm.traced {
					name := "http.search"
					if sm.knn {
						name = "http.knn"
					}
					l.spans.add(name, 0, int64(i), sm.start, sm.start.Add(sm.dur))
				}
				mine = append(mine, sm)
				l.done.Add(1)
			}
		}()
	}
}

// preIssue sends every hot-set request once, before timing, so every
// later repeat is a cache hit.
func (l *load) preIssue(conns int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				h := int(next.Add(1) - 1)
				if h >= len(l.g.hot) {
					break
				}
				sm := l.s.do(l.g.hot[h], l.keepIDs)
				sm.i, sm.pre = uint64(h), true
				mine = append(mine, sm)
			}
			l.mu.Lock()
			l.reads = append(l.reads, mine...)
			l.mu.Unlock()
		}()
	}
	wg.Wait()
}

// preWrite issues the writer's first n operations back to back, before
// the load starts; they are untimed.
func (l *load) preWrite(n int) {
	for ; l.nextWrite < uint64(n); l.nextWrite++ {
		w := l.write(l.nextWrite)
		w.due = w.sent
		l.writes = append(l.writes, w)
	}
}

// startWriter runs the open-loop writer from its next operation: the
// k-th one from here is due at start + k/rate whatever the previous
// ones took, and is timed from when it was due.
func (l *load) startWriter(rate float64) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		start := time.Now()
		var mine []wsample
		defer func() {
			l.mu.Lock()
			l.writes = append(l.writes, mine...)
			l.mu.Unlock()
		}()
		for k := uint64(0); ; k++ {
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			select {
			case <-l.stop:
				return
			case <-time.After(time.Until(due)):
			}
			w := l.write(l.nextWrite)
			l.nextWrite++
			w.due = due
			if l.traced {
				name := "http.insert"
				if w.del {
					name = "http.delete"
				}
				l.spans.add(name, 0, int64(w.k), w.sent, w.done)
			}
			mine = append(mine, w)
		}
	}()
}

// write issues the writer's k-th operation: a delete of a live inserted
// id, or an insert when the operation is one or none is live.
func (l *load) write(k uint64) wsample {
	op := l.g.write(k)
	w := wsample{k: k, sent: time.Now()}
	if op.del && len(l.live) > 0 {
		j := int(op.pick * float64(len(l.live)))
		w.del, w.id = true, l.live[j]
		l.live[j] = l.live[len(l.live)-1]
		l.live = l.live[:len(l.live)-1]
		if _, err := l.s.post("/delete", map[string]int32{"id": w.id}); err != nil {
			w.err = err.Error()
		}
	} else {
		w.vec = op.vec
		out, err := l.s.post("/insert", map[string]string{"vector": op.vec.String()})
		if err == nil {
			err = json.Unmarshal(out["id"], &w.id)
		}
		if err != nil {
			w.err = err.Error()
		} else {
			l.live = append(l.live, w.id)
		}
	}
	w.done = time.Now()
	return w
}

func (l *load) halt() {
	close(l.stop)
	l.wg.Wait()
}
