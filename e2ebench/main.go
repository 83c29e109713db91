// Command e2ebench is the repository's end-to-end benchmark: it
// generates one workload's inputs (a fixed corpus, and traffic from
// the seed), starts a real gph-server process, drives it over loopback
// HTTP, checks every response against a brute-force oracle and prints
// the workload's metrics. With -trace 1 it also times calls into each
// layer's public functions in-process, on the same inputs, and prints
// the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash e2ebench/run.sh --workload range_unique_1m --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// A response that disagrees with the oracle counts as failed and
// makes the command exit 1. See README.md for the workloads, the
// metrics and the layer each per-layer metric attributes.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
		seed     = flag.Uint64("seed", 1, "seed of the traffic: queries, thresholds, hot set, Zipf draws and writes")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		server   = flag.String("server", ".bench_build/gph-server", "gph-server binary")
		work     = flag.String("work", ".bench_build/work", "scratch directory for generated inputs, logs and traces")
	)
	flag.Parse()
	cfg, ok := lookupWorkload(*workload, false)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	if _, err := os.Stat(*server); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: server binary: %v\n", err)
		os.Exit(2)
	}
	dir := filepath.Join(*work, cfg.name)
	if err := os.RemoveAll(dir); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	// A run must end within 180 s: past runLimit, stop the servers and
	// fail rather than be killed with them still running. A signal does
	// the same.
	time.AfterFunc(runLimit, func() {
		killServers()
		fail(fmt.Errorf("run exceeded %v", runLimit))
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		killServers()
		fail(fmt.Errorf("stopped by %v", sig))
	}()
	cacheDir, err := inputCache(*work)
	if err != nil {
		fail(err)
	}
	r := &run{cfg: cfg, seed: *seed, seconds: *seconds, traced: *trace == 1, serverBin: *server, dir: dir, cacheDir: cacheDir}
	res, err := r.execute()
	if err != nil {
		fail(err)
	}
	res.finalize(r.traced)
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

const runLimit = 170 * time.Second

// inputCache returns the directory under work that keeps the inputs
// that do not depend on the seed (see run.cached). It holds the inputs
// of one build of the benchmark, named by a digest of its binary, which
// embeds the generator and the index code: a rebuilt benchmark empties
// it and makes its inputs afresh.
func inputCache(work string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	dir := filepath.Join(work, "cache")
	return dir, resetCache(dir, hex.EncodeToString(h.Sum(nil)))
}

// resetCache empties dir unless its stamp file names digest, and then
// stamps it with digest.
func resetCache(dir, digest string) error {
	stamp := filepath.Join(dir, "binary.sha256")
	if b, err := os.ReadFile(stamp); err == nil && string(b) == digest {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(stamp, []byte(digest), 0o644)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(1)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's verdict: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     map[string]metric // figures outside the run's metric set
	info      []string          // human-readable lines printed before the verdict
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) print(w *os.File) {
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	printSorted(w, "figure", r.extra)
	printSorted(w, "metric", r.Metrics)
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}

func printSorted(w *os.File, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-24s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}
