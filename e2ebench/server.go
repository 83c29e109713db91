package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live tracks the server processes this run has started and not yet
// stopped, so a timeout or a signal can stop them before exiting.
var live = struct {
	sync.Mutex
	procs map[*os.Process]bool
}{procs: map[*os.Process]bool{}}

// killServers kills every live server process and waits (briefly) for
// each to be reaped.
func killServers() {
	live.Lock()
	for p := range live.procs {
		p.Kill()
	}
	live.Unlock()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		live.Lock()
		n := len(live.procs)
		live.Unlock()
		if n == 0 {
			return
		}
	}
}

// server is one gph-server process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client // the load: readers and writer share conns connections
	ctl    *http.Client // /stats and /metrics polls, apart from the load
	exited chan error
	setup  time.Duration // process start to first 200 from /healthz
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus a loopback -addr and waits
// for /healthz to answer 200; the wait is the setup time.
func startServer(bin, logPath string, conns int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		ctl:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		exited: make(chan error, 1),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.procs[cmd.Process] = true
	live.Unlock()
	go func() {
		err := cmd.Wait()
		live.Lock()
		delete(live.procs, cmd.Process)
		live.Unlock()
		s.exited <- err
	}()
	// A refused TCP connect is a few syscalls, so the probe loop takes
	// little of the two cores from the starting server; /healthz is
	// asked once the port accepts.
	probe := &http.Client{Timeout: time.Second}
	for {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			resp, err := probe.Get(s.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.setup = time.Since(start)
					probe.CloseIdleConnections()
					return s, nil
				}
			}
		}
		select {
		case err := <-s.exited:
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("gph-server exited before ready (%v): %s", err, lastLines(string(tail), 5))
		case <-time.After(pollEvery(time.Since(start))):
		}
		if time.Since(start) > 170*time.Second {
			s.stop()
			return nil, fmt.Errorf("gph-server not ready after %v", time.Since(start))
		}
	}
}

// pollEvery spaces /healthz probes: finely at first, so a mapped open
// that is ready in milliseconds is timed to a fraction of one, then
// coarsely while an index builds.
func pollEvery(elapsed time.Duration) time.Duration {
	if elapsed < time.Second {
		return 200 * time.Microsecond
	}
	return 5 * time.Millisecond
}

func lastLines(s string, n int) string {
	ls := strings.Split(strings.TrimSpace(s), "\n")
	if len(ls) > n {
		ls = ls[len(ls)-n:]
	}
	return strings.Join(ls, " | ")
}

// stop kills the process and waits for it to end. Kill, not a graceful
// drain: a sharded server's shutdown waits out a running compaction,
// which would only lengthen the run — every figure is read before.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
	s.cmd.Process.Kill()
	<-s.exited
}

// compact asks the server for a background compaction.
func (s *server) compact() error {
	resp, err := s.ctl.Post(s.base+"/compact", "application/json", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /compact: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statsDoc is the part of /stats the benchmark reads.
type statsDoc struct {
	SizeBytes int64  `json:"size_bytes"`
	OpenMode  string `json:"open_mode"`
	Planner   *struct {
		Calibrated      bool    `json:"calibrated"`
		RoutedIndex     int64   `json:"routed_index"`
		RoutedScan      int64   `json:"routed_scan"`
		ScanNanosPerRow float64 `json:"scan_nanos_per_row"`
		EstimateNanos   float64 `json:"estimate_nanos"`
		Cache           struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
			Entries   int64 `json:"entries"`
			Bytes     int64 `json:"bytes"`
			MaxBytes  int64 `json:"max_bytes"`
		} `json:"cache"`
	} `json:"planner"`
	Compaction *struct {
		Running    bool   `json:"running"`
		Runs       int64  `json:"runs"`
		LastMillis int64  `json:"last_millis"`
		LastError  string `json:"last_error"`
	} `json:"compaction"`
	Shards []struct {
		Delta      int `json:"delta"`
		Tombstones int `json:"tombstones"`
	} `json:"shards"`
	WALBytes int64 `json:"wal_bytes"`
}

// metricsDoc holds the /metrics samples the benchmark reads, keyed by
// the sample name with its labels ("gph_cache_hits_total",
// `gph_request_duration_seconds_sum{handler="search"}`).
type metricsDoc map[string]float64

func (s *server) metrics() (metricsDoc, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := metricsDoc{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// procStat is the /proc/<pid>/stat and /status figures the benchmark
// brackets a timed phase with.
type procStat struct {
	minflt, majflt uint64
	cpu            time.Duration // user + system
	hwmKB          int64         // VmHWM: peak resident set
}

const clockTick = 100 // USER_HZ on Linux

func readProc(pid int) (procStat, error) {
	var p procStat
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	num := func(i int) uint64 { v, _ := strconv.ParseUint(f[i-3], 10, 64); return v }
	p.minflt, p.majflt = num(10), num(12)
	p.cpu = time.Duration(num(14)+num(15)) * time.Second / clockTick
	st, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return p, err
	}
	for _, l := range strings.Split(string(st), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			p.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return p, nil
}

// selfCPU is this process's user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot brackets a timed phase: /stats, /metrics and /proc read
// together, so the run reports deltas rather than totals.
type snapshot struct {
	at      time.Time
	stats   statsDoc
	metrics metricsDoc
	proc    procStat
	selfCPU time.Duration
}

func (s *server) snapshot() (snapshot, error) {
	var sn snapshot
	sn.at = time.Now()
	if err := s.getJSON("/stats", &sn.stats); err != nil {
		return sn, err
	}
	m, err := s.metrics()
	if err != nil {
		return sn, err
	}
	sn.metrics = m
	if sn.proc, err = readProc(s.cmd.Process.Pid); err != nil {
		return sn, err
	}
	sn.selfCPU = selfCPU()
	return sn, nil
}
