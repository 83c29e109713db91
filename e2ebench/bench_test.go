package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// These tests run every workload in its scaled-down mode against a
// freshly built gph-server: each run must agree with the oracle and
// print exactly the metric set BENCHMARK.json names.
//
//	cd e2ebench && go test ./...

var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "gph-server")
	out, err := exec.Command("go", "build", "-o", serverBin, "gph/cmd/gph-server").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building gph-server: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	// range_unique_1m runs by hand but is not in BENCHMARK.json
	// (README.md, "Why range_unique_1m carries no bound").
	if got, want := names, []string{"hot_repeat_mmap", "update_mix_sharded"}; !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []struct{ name, unit string }) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runSmall(t *testing.T, name string, traced bool) *result {
	t.Helper()
	cfg, ok := lookupWorkload(name, true)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	dir := t.TempDir()
	r := &run{cfg: cfg, seed: 3, seconds: 1.5, traced: traced, serverBin: serverBin, dir: dir, cacheDir: filepath.Join(dir, "cache")}
	start := time.Now()
	res, err := r.execute()
	if err != nil {
		t.Fatal(err)
	}
	res.finalize(traced)
	t.Logf("%s traced=%v in %v: attempted %d failed %d", name, traced, time.Since(start).Round(time.Millisecond), res.Attempted, res.Failed)
	for _, l := range res.info {
		t.Log(l)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("oracle disagreement: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s not printed", m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
		}
	}
	if traced {
		if _, err := os.Stat(filepath.Join(dir, "trace-3.jsonl")); err != nil {
			t.Errorf("trace not written: %v", err)
		}
	}
	return res
}

func TestWorkloadsSmall(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			runSmall(t, name, false)
		})
		t.Run(name+"/traced", func(t *testing.T) {
			res := runSmall(t, name, true)
			// Each workload's own layers are measured, not left at 0.
			var mustMove []string
			switch name {
			case "range_unique_1m":
				mustMove = []string{"verify.scan_us", "gph.alloc_us", "gph.search_us", "build.s", "plan.calibrate_ms", "http.handler_us"}
			case "hot_repeat_mmap":
				mustMove = []string{"cache.hit_ratio", "cache.hit_us", "knn.grow_us", "open.ms", "gph.alloc_us", "knn_p50_ms"}
			case "update_mix_sharded":
				mustMove = []string{"shard.search_us", "shard.insert_us", "shard.compact_ms", "wal.bytes_per_update", "write_p50_ms", "build.s"}
			}
			for _, m := range mustMove {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v on %s, want > 0", m, res.Metrics[m].Value, name)
				}
			}
		})
	}
}

// The oracle must catch a wrong answer: tamper with one response of a
// small generated workload and expect exactly one failure.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	cfg, _ := lookupWorkload("hot_repeat_mmap", true)
	c, err := newCorpus(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(cfg, 5, c)
	var reads []sample
	for i := uint64(0); i < 40; i++ {
		req := g.read(i)
		sm := sample{i: i, knn: req.knn()}
		if req.knn() {
			want := bruteKNN(c, req.q, req.k)
			sm.count, sm.hash, sm.dists = len(want), hashInts(want), want
			// ids at those distances, found by brute force
			for d := range want {
				for r := range c.rows {
					if int32(dist(c.flat[r*c.words:(r+1)*c.words], req.q.Words())) == want[d] && !contains(sm.ids, int32(r)) {
						sm.ids = append(sm.ids, int32(r))
						break
					}
				}
			}
		} else {
			ids := bruteRangeBatch(c, []request{req})[0]
			sm.count, sm.hash = len(ids), hashInts(ids)
		}
		reads = append(reads, sm)
	}
	if wrong, why := checkReads(c, g, reads, 2); wrong != 0 {
		t.Fatalf("oracle rejects its own answers: %v", why)
	}
	for i := range reads {
		if !reads[i].knn {
			reads[i].count++
			break
		}
	}
	for i := range reads {
		if reads[i].knn {
			reads[i].dists = append([]int32(nil), reads[i].dists...)
			reads[i].dists[0]++ // reported distance no longer matches the id
			break
		}
	}
	if wrong, _ := checkReads(c, g, reads, 2); wrong != 2 {
		t.Fatalf("tampered answers: oracle found %d wrong, want 2", wrong)
	}
}

func contains(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// The update oracle must reject an id that was deleted before the
// search started, and accept one whose delete raced the search.
func TestUpdateOracleLiveSet(t *testing.T) {
	cfg, _ := lookupWorkload("update_mix_sharded", true)
	c, err := newCorpus(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(cfg, 7, c)
	req := g.read(0)
	base := bruteRangeBatch(c, []request{req})[0]
	// Insert an exact copy of the query, so it is within every tau.
	t0 := time.Now()
	id := int32(cfg.n)
	ins := wsample{id: id, vec: req.q.Clone(), due: t0, sent: t0, done: t0.Add(time.Millisecond)}
	del := wsample{k: 1, del: true, id: id, due: t0.Add(2 * time.Millisecond), sent: t0.Add(2 * time.Millisecond), done: t0.Add(3 * time.Millisecond)}
	search := func(at time.Time, ids []int32) sample {
		return sample{i: 0, start: at, dur: 200 * time.Microsecond, ids: ids, count: len(ids)}
	}
	withID := append(append([]int32(nil), base...), id)
	cases := []struct {
		name  string
		s     sample
		wrong int
	}{
		{"live and returned", search(t0.Add(1500*time.Microsecond), withID), 0},
		{"live and missing", search(t0.Add(1500*time.Microsecond), base), 1},
		{"deleted and returned", search(t0.Add(10*time.Millisecond), withID), 1},
		{"deleted and absent", search(t0.Add(10*time.Millisecond), base), 0},
		{"delete racing", search(t0.Add(2500*time.Microsecond), withID), 0},
	}
	for _, tc := range cases {
		if wrong, why := checkUpdates(c, g, []sample{tc.s}, []wsample{ins, del}, 1); wrong != tc.wrong {
			t.Errorf("%s: %d wrong (%v), want %d", tc.name, wrong, why, tc.wrong)
		}
	}
}

// A seed-independent input is made once and then reused; a failed
// make leaves nothing behind for the next run to pick up; a rebuilt
// benchmark starts from an empty cache.
func TestCachedMakesOnce(t *testing.T) {
	r := &run{cacheDir: filepath.Join(t.TempDir(), "cache")}
	made := 0
	mk := func(path string) error {
		made++
		return os.WriteFile(path, []byte("input"), 0o644)
	}
	p1, err := r.cached("x.ds", mk)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.cached("x.ds", mk)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || made != 1 {
		t.Errorf("paths %q, %q and %d makes, want one path made once", p1, p2, made)
	}
	broken := func(path string) error {
		os.WriteFile(path, []byte("half"), 0o644)
		return os.ErrInvalid
	}
	if _, err := r.cached("y.ds", broken); err == nil {
		t.Fatal("failed make reported no error")
	}
	if entries, _ := os.ReadDir(r.cacheDir); len(entries) != 1 {
		t.Errorf("cache holds %d files after a failed make, want 1", len(entries))
	}
	// The cache keeps one build's inputs: the same digest keeps them, a
	// new one empties the directory, so inputs never pile up.
	if err := resetCache(r.cacheDir, "a"); err != nil {
		t.Fatal(err)
	}
	if err := resetCache(r.cacheDir, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Errorf("a new build kept an old input (stat: %v)", err)
	}
	p3, err := r.cached("x.ds", mk)
	if err != nil {
		t.Fatal(err)
	}
	if err := resetCache(r.cacheDir, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p3); err != nil {
		t.Errorf("the same build lost its input: %v", err)
	}
}
