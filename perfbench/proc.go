package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark starts, so that each one is
// stopped and waited for on every exit path, the watchdog's included.
type children struct {
	mu    sync.Mutex
	procs []*child
}

// child is one started subseqctl process.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port it listens on
	done chan struct{}
	once sync.Once
}

var addrRE = regexp.MustCompile(`on http://(\S+)`)

// start runs bin with args and waits until it prints the address it
// listens on ("... on http://host:port", printed by serve and gateway).
func (c *children) start(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark die without cleaning up, the kernel stops the
	// child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", args[0], err)
	}
	ch := &child{cmd: cmd, done: make(chan struct{})}
	c.mu.Lock()
	c.procs = append(c.procs, ch)
	c.mu.Unlock()
	go func() {
		cmd.Wait()
		close(ch.done)
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil && !found {
				found = true
				addr <- "http://" + m[1]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case ch.base = <-addr:
		return ch, nil
	case <-ch.done:
		return nil, fmt.Errorf("%s %s exited before listening", bin, strings.Join(args, " "))
	case <-time.After(60 * time.Second):
		ch.stop()
		return nil, fmt.Errorf("%s %s printed no address within 60s", bin, strings.Join(args, " "))
	}
}

// stop asks the process to shut down gracefully, kills it if it has not
// exited within five seconds, and waits for it.
func (ch *child) stop() {
	ch.once.Do(func() {
		ch.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-ch.done:
		case <-time.After(5 * time.Second):
			ch.cmd.Process.Kill()
			<-ch.done
		}
	})
}

// rssBytes is the process's resident set size, from /proc.
func (ch *child) rssBytes() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", ch.cmd.Process.Pid)
}

// stopAll stops every started process that is still running, in parallel,
// and waits for all of them.
func (c *children) stopAll() {
	c.mu.Lock()
	procs := c.procs
	c.procs = nil
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, ch := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.stop()
		}()
	}
	wg.Wait()
}
