package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/topk"
)

// output is a run's stdout, written by the command's goroutine and read by
// the test's.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// coordinator is one `topkmon -serve` incarnation with its -join hosts, all
// running in this process.
type coordinator struct {
	stdout, stderr output
	kill           context.CancelFunc // what Ctrl-C is to the real process
	exit           chan int
	joins          chan int
}

// listening is the coordinator's first line of output.
var listening = regexp.MustCompile(`^coordinator on (\S+): waiting for`)

// serve starts the coordinator, reads the address it listens on off its
// first line of output, and joins it with peers node hosts.
func serve(t *testing.T, args string, peers int) *coordinator {
	t.Helper()
	ctx, kill := context.WithCancel(context.Background())
	t.Cleanup(kill)
	c := &coordinator{kill: kill, exit: make(chan int, 1), joins: make(chan int, peers)}
	go func() { c.exit <- runContext(ctx, strings.Fields(args), &c.stdout, &c.stderr) }()
	var addr string
	eventually(t, "the coordinator's address", func() bool {
		m := listening.FindStringSubmatch(c.stdout.String())
		if m != nil {
			addr = m[1]
		}
		return m != nil || len(c.exit) > 0
	})
	if addr == "" {
		t.Fatalf("coordinator exited before listening: %s", c.stderr.String())
	}
	for range peers {
		go func() {
			var stdout, stderr bytes.Buffer
			c.joins <- run([]string{"-join", addr}, &stdout, &stderr)
		}()
	}
	return c
}

// newestFrame returns the first byte of the highest-numbered checkpoint
// file in dir — 0x17 a base frame, 0x19 a delta — and how many there are.
func newestFrame(dir string) (tag byte, files int) {
	saved, _ := os.ReadDir(dir)
	for i := len(saved) - 1; i >= 0; i-- { // ReadDir sorts by name, names by generation
		if name := saved[i].Name(); strings.HasSuffix(name, ".bin") {
			if frame, err := os.ReadFile(filepath.Join(dir, name)); err == nil && len(frame) > 0 {
				return frame[0], len(saved)
			}
		}
	}
	return 0, len(saved)
}

// TestServeJoinRestart is README's kill-and-restart demo in one process: a
// checkpointing TCP coordinator is cut off mid-trace — on the sparse
// workload, where a checkpoint is a base frame and the deltas after it, and
// at a moment when the newest file in its directory is a delta — and the
// same command line, run again with fresh joins, restores from that chain
// and streams exactly the steps that were left, every one of them graded
// against the oracle.
func TestServeJoinRestart(t *testing.T) {
	const steps, peers, n = 4000, 2, 1024
	var dir, args string
	var first *coordinator
	// The cut has to land inside a chain. It is made the moment the newest
	// file is a delta and the next base is many saves away, so it all but
	// always does; a base written in between costs another try.
	for try := 0; ; try++ {
		dir = t.TempDir()
		args = fmt.Sprintf("-serve 127.0.0.1:0 -peers %d -n %d -k 3 -steps %d -seed 7 -workload sparse -checkpoint %s -ckpt-every 2", peers, n, steps, dir)
		first = serve(t, args, peers)
		eventually(t, "a delta as the newest of two checkpoint files on disk", func() bool {
			tag, files := newestFrame(dir)
			return files >= 2 && tag == 0x19 || len(first.exit) > 0
		})
		first.kill()
		if code := <-first.exit; code != 1 || !strings.Contains(first.stderr.String(), "monitor failed mid-run") {
			t.Fatalf("first coordinator: exit %d, stderr %q; want it cut off mid-run (if it finished, raise steps)\n%s", code, first.stderr.String(), first.stdout.String())
		}
		for range peers {
			<-first.joins // their links died with the coordinator
		}
		if tag, _ := newestFrame(dir); tag == 0x19 {
			break
		} else if try == 4 {
			t.Fatalf("five cuts, and the newest file was never a delta (last tag 0x%02x)", tag)
		}
	}

	// What the newest frame holds, read the way the second coordinator will.
	store, err := topk.FileCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, loaded, err := store.Load(); err != nil || loaded[0] != 0x1a {
		t.Fatalf("the store does not load a chain: %v", err)
	}
	saved, err := topk.Restore(store, topk.Config{Nodes: n, K: 3, Seed: 7 + 1, Transport: topk.Loopback(peers)})
	if err != nil {
		t.Fatal(err)
	}
	savedStep, savedMsgs := saved.Stats().Steps, saved.Counts().Total()
	saved.Close()

	second := serve(t, args, peers)
	if code := <-second.exit; code != 0 {
		t.Fatalf("second coordinator: exit %d, stderr %q\n%s", code, second.stderr.String(), second.stdout.String())
	}
	for range peers {
		if code := <-second.joins; code != 0 {
			t.Errorf("a node host of the second coordinator exited %d", code)
		}
	}
	out := second.stdout.String()
	field := func(pattern string) int64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no %q in\n%s", pattern, out)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}
	gen := field(`restored from checkpoint generation (\d+) \(step \d+\)`)
	step := field(`restored from checkpoint generation \d+ \(step (\d+)\)`)
	streamed := field(`streaming (\d+) steps`)
	msgs := field(`(?m)^  total +(\d+) `)
	t.Logf("cut off after generation %d (step %d); %d steps streamed after the restart", gen, step, streamed)
	if gen < 1 || step != savedStep || step+streamed != steps {
		t.Errorf("restored generation %d at step %d (frame holds step %d), streamed %d of %d", gen, step, savedStep, streamed, steps)
	}
	if !strings.Contains(out, fmt.Sprintf(" steps=%d ", streamed)) || !strings.Contains(out, " errors=0 ") {
		t.Errorf("the streamed steps were not all graded clean:\n%s", out)
	}
	if msgs < savedMsgs {
		t.Errorf("final ledger %d messages, below the checkpointed %d", msgs, savedMsgs)
	}
	written, bases, deltas := field(`checkpoints: (\d+) written `), field(`written — (\d+) bases, `), field(` bases, (\d+) deltas, \d+ bytes `)
	if written != streamed/2 || bases+deltas != written || bases < 1 || deltas < 3*bases {
		t.Errorf("%d checkpoints written over %d steps at one every 2: %d bases and %d deltas", written, streamed, bases, deltas)
	}

	// Run a third time, the newest frame is the end of the trace.
	third := serve(t, args, peers)
	if code := <-third.exit; code != 0 || !strings.Contains(third.stdout.String(), fmt.Sprintf("(step %d)", steps)) || !strings.Contains(third.stdout.String(), "nothing left to stream") {
		t.Errorf("third coordinator: exit %d, stderr %q\n%s", code, third.stderr.String(), third.stdout.String())
	}
}
