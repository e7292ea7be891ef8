package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot returns the nearest ancestor of the working directory that holds
// the repository (go.mod beside cmd/swserve).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "swserve", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod beside cmd/swserve) above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// buildServer compiles cmd/swserve from the checkout into dir, once, before
// anything is timed.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "swserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/swserve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/swserve: %v\n%s", err, out.String())
	}
	return bin, nil
}

// running holds every live server, so an interrupted run can still kill and
// reap them (see stopOnSignal).
var running = struct {
	sync.Mutex
	m map[*server]bool
}{m: make(map[*server]bool)}

// stopOnSignal kills and reaps every live server and exits when SIGINT or
// SIGTERM arrives before done is closed.
func stopOnSignal(done <-chan struct{}) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sig)
		select {
		case <-sig:
			running.Lock()
			defer running.Unlock()
			for s := range running.m {
				s.kill()
			}
			os.Exit(1)
		case <-done:
		}
	}()
}

// server is one running swserve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	stderr  bytes.Buffer
	exited  chan struct{}
	waitErr error
}

// spawn starts swserve on a free loopback port and returns once /healthz
// answers 200 — the sampler or fabric is registered (and, with a state
// dir, recovered) before swserve listens — with how long that took.
func spawn(bin string, args []string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start swserve: %w", err)
	}
	running.Lock()
	running.m[s] = true
	running.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
		running.Lock()
		delete(running.m, s)
		running.Unlock()
	}()
	if err := s.awaitHealthy(start.Add(2 * time.Minute)); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, now().Sub(start), nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	return addr, nil
}

func (s *server) awaitHealthy(deadline time.Time) error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("swserve exited before serving (%v): %s", s.waitErr, strings.TrimSpace(s.stderr.String()))
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if now().After(deadline) {
			return errors.New("swserve did not answer /healthz in time")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill sends SIGKILL — a crash, not a shutdown: no final snapshot is
// written — and waits for the process to end.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // fails only if the process is already gone, which the wait below covers
	<-s.exited
}

// get fetches path on a fresh connection and returns the status and body.
func (s *server) get(path string) (int, []byte, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Minute}
	resp, err := client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}
