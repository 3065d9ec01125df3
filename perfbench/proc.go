package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one edsd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
const clockTick = 100

// startFleet launches n edsd processes on free loopback ports with
// default flags; with n > 1 they form one cluster (-self/-peers). It
// starts them one after another, each once the previous answers
// /readyz, and returns when all are ready and, in a cluster, every
// replica sees every peer ready. The rolling start makes the wait
// deterministic: the first replica always probes its peers before they
// listen, so readiness always comes with its next probe. With logs
// set, each daemon's request log goes to a file under the run's log
// directory, otherwise it is discarded.
func startFleet(ctx context.Context, cfg *config, n int, logs bool) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	bases := make([]string, n)
	for i, p := range ports {
		bases[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var fleet []*daemon
	for i := range n {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i])}
		if n > 1 {
			args = append(args, "-self", bases[i], "-peers", strings.Join(bases, ","))
		}
		d := &daemon{cmd: exec.Command(cfg.edsd, args...), base: bases[i], exited: make(chan struct{})}
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		// The kernel kills the daemon if the benchmark dies first.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if logs {
			f, err := os.Create(filepath.Join(cfg.out, "logs", fmt.Sprintf("%s-edsd%d.log", cfg.tag(), i)))
			if err != nil {
				stopFleet(fleet)
				return nil, err
			}
			d.logf = f
			d.cmd.Stderr = f
		}
		if err := d.cmd.Start(); err != nil {
			if d.logf != nil {
				d.logf.Close()
			}
			stopFleet(fleet)
			return nil, fmt.Errorf("starting edsd: %w", err)
		}
		go func() {
			d.cmd.Wait()
			close(d.exited)
		}()
		fleet = append(fleet, d)
		if err := waitReady(ctx, c, d); err != nil {
			stopFleet(fleet)
			return nil, err
		}
	}
	if n > 1 {
		if err := waitPeers(ctx, c, fleet); err != nil {
			stopFleet(fleet)
			return nil, err
		}
	}
	return fleet, nil
}

// stopFleet sends SIGTERM (edsd drains and exits), escalates to SIGKILL
// after a grace period, and returns once every process has exited.
func stopFleet(fleet []*daemon) {
	for _, d := range fleet {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range fleet {
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		if d.logf != nil {
			d.logf.Close()
		}
	}
}

func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("finding a free port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// readyTimeout bounds the wait for a daemon, or a fleet, to be ready.
const readyTimeout = 30 * time.Second

// waitReady polls until the daemon's /readyz answers 200.
func waitReady(ctx context.Context, c *http.Client, d *daemon) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("edsd at %s exited during start-up", d.base)
		default:
		}
		if get(ctx, c, d.base+"/readyz") == nil {
			return nil
		}
		if err := pause(ctx, 2*time.Millisecond); err != nil {
			return fmt.Errorf("edsd at %s not ready: %w", d.base, err)
		}
	}
}

// waitPeers polls until every replica's /statsz reports all of its
// peers ready, so ownership is the fleet-wide assignment from the first
// request on.
func waitPeers(ctx context.Context, c *http.Client, fleet []*daemon) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for _, d := range fleet {
		for {
			s, err := fetchStatsz(ctx, c, d.base)
			if err == nil && s.Cluster != nil && len(s.Cluster.Peers) == len(fleet)-1 && s.allPeersReady() {
				break
			}
			if err := pause(ctx, 10*time.Millisecond); err != nil {
				return fmt.Errorf("edsd at %s never saw its peers ready: %w", d.base, err)
			}
		}
	}
	return nil
}

func pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func get(ctx context.Context, c *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", url, resp.StatusCode)
	}
	return nil
}

// statsz is the part of edsd's GET /statsz the benchmark reads.
type statsz struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Size   int   `json:"size"`
	} `json:"cache"`
	EngineTime struct {
		Runs      int64   `json:"runs"`
		SetupMs   float64 `json:"setup_ms"`
		RoundsMs  float64 `json:"rounds_ms"`
		OutputsMs float64 `json:"outputs_ms"`
	} `json:"engine_time"`
	Cluster *struct {
		Peers map[string]peerStatsz `json:"peers"`
	} `json:"cluster"`
}

type peerStatsz struct {
	Ready     bool  `json:"ready"`
	Fallbacks int64 `json:"fallbacks"`
}

func (s *statsz) allPeersReady() bool {
	for _, p := range s.Cluster.Peers {
		if !p.Ready {
			return false
		}
	}
	return true
}

func (s *statsz) fallbacks() int64 {
	var n int64
	if s.Cluster != nil {
		for _, p := range s.Cluster.Peers {
			n += p.Fallbacks
		}
	}
	return n
}

func fetchStatsz(ctx context.Context, c *http.Client, base string) (*statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statsz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding %s/statsz: %w", base, err)
	}
	return &s, nil
}

// fleetStatsz sums the counters of every replica.
func fleetStatsz(ctx context.Context, c *http.Client, fleet []*daemon) (*statsz, error) {
	sum := &statsz{}
	for _, d := range fleet {
		s, err := fetchStatsz(ctx, c, d.base)
		if err != nil {
			return nil, err
		}
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.Size += s.Cache.Size
		sum.EngineTime.Runs += s.EngineTime.Runs
		sum.EngineTime.SetupMs += s.EngineTime.SetupMs
		sum.EngineTime.RoundsMs += s.EngineTime.RoundsMs
		sum.EngineTime.OutputsMs += s.EngineTime.OutputsMs
		if s.Cluster != nil {
			if sum.Cluster == nil {
				sum.Cluster = &struct {
					Peers map[string]peerStatsz `json:"peers"`
				}{Peers: map[string]peerStatsz{}}
			}
			for k, p := range s.Cluster.Peers {
				sum.Cluster.Peers[d.base+" -> "+k] = p
			}
		}
	}
	return sum, nil
}

// procCPUMs is a process's user+system CPU time in milliseconds.
func procCPUMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime in /proc stat line")
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// procHWMMiB is a process's peak resident set (VmHWM) in MiB; pid may
// be "self".
func procHWMMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so a
// later reading covers only what follows (input generation excluded).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fleetCPUMs(fleet []*daemon) (float64, error) {
	total := 0.0
	for _, d := range fleet {
		ms, err := procCPUMs(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}

func fleetHWMMiB(fleet []*daemon) (float64, error) {
	total := 0.0
	for _, d := range fleet {
		mb, err := procHWMMiB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// hostTicks is the host's aggregate CPU time split from /proc/stat.
type hostTicks struct{ busy, idle, steal int64 }

func hostCPU() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
			t.idle += n
		case 7:
			t.steal += n
		default:
			t.busy += n
		}
	}
	return t
}

// stealSince is the share of the host's CPU time since t0 that the
// hypervisor gave to other guests.
func (t hostTicks) stealSince(t0 hostTicks) float64 {
	busy, idle, steal := t.busy-t0.busy, t.idle-t0.idle, t.steal-t0.steal
	return float64(steal) / float64(max(busy+idle+steal, 1))
}
