package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procCPU returns the user and system CPU seconds a process has used.
func procCPU(pid int) (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return ut / clockTick, st / clockTick, nil
}

// procMemMB returns a process's current and peak resident set (VmRSS,
// VmHWM) in MB.
func procMemMB(pid int) (rss, hwm float64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(fields[1], 64)
		switch fields[0] {
		case "VmRSS:":
			rss = kb / 1024
		case "VmHWM:":
			hwm = kb / 1024
		}
	}
	return rss, hwm, sc.Err()
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is one running sparqld.
type server struct {
	cmd    *exec.Cmd
	addr   string
	setupS float64    // process start → first 200 from /healthz
	exited chan error // receives cmd.Wait's result once
	logf   *os.File
}

// sparqldArgs are the flags a workload's sparqld is started with,
// -addr aside.
func sparqldArgs(w workloadDef, dataPath string) []string {
	return []string{"-data", dataPath, "-partition", w.partition, "-nodes", "10", "-plancache", strconv.Itoa(w.planCache)}
}

// startServer starts sparqld and waits until /healthz answers 200.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, logf: logf, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setupS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("sparqld exited during set-up: %v (log: %s)", err, logPath)
		case <-ctx.Done():
			cmd.Process.Kill()
			<-s.exited
			logf.Close()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks sparqld to drain and exit, and waits until it has.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.logf.Close()
}

// scrape reads the gauges and counters of /metrics whose names are in
// want (labels are ignored; the plan-cache series have none).
func (s *server) scrape(want ...string) (map[string]float64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		for _, w := range want {
			if fields[0] == w {
				out[w], _ = strconv.ParseFloat(fields[1], 64)
			}
		}
	}
	return out, sc.Err()
}
