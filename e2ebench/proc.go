package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Proc is a running server process.
type Proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	Addr  string // application
	Ctl   string // control listener
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// spawn starts the server over dataDir and waits for its READY line.
func spawn(dataDir string, traced bool) (*Proc, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-data", dataDir}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{cmd: cmd, stdin: stdin, exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- line
		io.Copy(io.Discard, stdout) //nolint:errcheck // drain until the process exits
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is not needed; stop waits on exited
		close(p.exited)
	}()
	select {
	case line := <-ready:
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "READY" {
			p.Stop()
			return nil, fmt.Errorf("server did not start (said %q)", strings.TrimSpace(line))
		}
		p.Addr, p.Ctl = f[1], f[2]
		return p, nil
	case <-time.After(90 * time.Second):
		p.Stop()
		return nil, fmt.Errorf("server start timed out")
	}
}

// Stop closes the server's stdin, which shuts it down, and waits for
// it to exit; a server that does not exit in time is killed.
func (p *Proc) Stop() {
	p.stdin.Close()
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already exiting or gone
		<-p.exited
	}
}

// Stats fetches a counter snapshot from the control listener.
func (p *Proc) Stats() (ServerStats, error) {
	var st ServerStats
	err := p.control("/stats", &st)
	return st, err
}

// Spans asks a traced server to write the spans recorded since the
// last call to path ("" discards them) and returns the unjoined
// summaries.
func (p *Proc) Spans(path string) (map[string]AggStat, error) {
	var agg map[string]AggStat
	err := p.control("/spans?out="+url.QueryEscape(path), &agg)
	return agg, err
}

func (p *Proc) control(path string, v any) error {
	resp, err := http.Get("http://" + p.Ctl + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("control %s: %s", path, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times.
const clockTick = 100

// CPUTime reads the process's user+system CPU time from /proc.
func (p *Proc) CPUTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// PeakRSS reads the process's VmHWM in bytes.
func (p *Proc) PeakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
