package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bootTimeout bounds dbpal-serve's start-up (corpus synthesis for the
// fallback tier plus model load) before the harness gives up.
const bootTimeout = 60 * time.Second

// server is one running dbpal-serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
	log  *os.File
}

// command builds an exec.Cmd that dies with the harness.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// train runs dbpal-train for the tenant at one epoch and returns its
// wall time.
func train(ctx context.Context, bin, work, schemaName, out string) (time.Duration, error) {
	logf, err := os.Create(filepath.Join(work, "train.log"))
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := command(ctx, filepath.Join(bin, "dbpal-train"),
		"-schema", schemaName, "-epochs", "1", "-seed", strconv.Itoa(serverSeed), "-o", out)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("dbpal-train -schema %s: %w (see %s)", schemaName, err, logf.Name())
	}
	return time.Since(t0), nil
}

var listenRE = regexp.MustCompile(`on (http://[0-9.]+:[0-9]+)`)

// startServer launches dbpal-serve on the trained model with only
// -schema/-load/-seed/-rows/-addr, every other setting at the CLI's
// default, and returns once /readyz answers 200, with the time taken.
// n numbers the server's log file.
func startServer(bin, work, schemaName, model string, n int) (*server, time.Duration, error) {
	logf, err := os.Create(filepath.Join(work, fmt.Sprintf("serve-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	// The server outlives the run budget: /statsz and VmHWM are read
	// after it.
	cmd := command(context.Background(), filepath.Join(bin, "dbpal-serve"),
		"-schema", schemaName, "-load", model, "-seed", strconv.Itoa(serverSeed),
		"-rows", strconv.Itoa(serverRows), "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	cmd.Stderr = logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1), log: logf}
	addrc := make(chan string, 1)
	go func() {
		// Copy the server's stdout to its log, reporting the listen
		// address once; the copy ends when the process exits.
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrc <- m[1]
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	select {
	case s.base = <-addrc:
	case err := <-s.done:
		s.done <- err
		s.stop()
		return nil, 0, fmt.Errorf("dbpal-serve exited during boot: %v (see %s)", err, logf.Name())
	case <-deadline.C:
		s.stop()
		return nil, 0, fmt.Errorf("dbpal-serve did not listen within %s", bootTimeout)
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-deadline.C:
			s.stop()
			return nil, 0, fmt.Errorf("dbpal-serve not ready within %s", bootTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM, escalating to SIGKILL when an
// in-flight request outlives the grace period, and waits for the exit.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// statsz fetches /statsz as a generic tree so that sections a later
// version drops read as absent rather than breaking the harness.
func (s *server) statsz() (map[string]any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return out, nil
}

// num reads a number at a path of object keys, reporting whether it
// was present.
func num(tree map[string]any, path ...string) (float64, bool) {
	var cur any = tree
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur = m[k]
	}
	f, ok := cur.(float64)
	return f, ok
}

// section returns the tenant's row of /statsz, falling back to the
// top level for a server without per-tenant rows.
func section(tree map[string]any, tenantName string) map[string]any {
	if ts, ok := tree["tenants"].(map[string]any); ok {
		if row, ok := ts[tenantName].(map[string]any); ok {
			return row
		}
	}
	return tree
}
