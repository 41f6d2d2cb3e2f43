package topk

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// watchedLink counts the Assign frames sent over a link and records
// whether it was closed.
type watchedLink struct {
	Link
	assigns int
	closed  bool
}

func (l *watchedLink) Send(payload []byte) error {
	if len(payload) > 0 && payload[0] == wire.TypeAssign {
		l.assigns++
	}
	return l.Link.Send(payload)
}

func (l *watchedLink) Close() error {
	l.closed = true
	return l.Link.Close()
}

// watchedTransport hands out peers watched Loopback links. Like a
// Transport that leaves its links to the monitor, its Close closes none of
// them; release does, for the test's cleanup.
type watchedTransport struct{ links []*watchedLink }

func newWatchedTransport(peers int) *watchedTransport {
	w := &watchedTransport{}
	for _, l := range Loopback(peers).Links() {
		w.links = append(w.links, &watchedLink{Link: l})
	}
	return w
}

func (w *watchedTransport) Links() []Link {
	links := make([]Link, len(w.links))
	for i, l := range w.links {
		links[i] = l
	}
	return links
}

func (w *watchedTransport) Close() error { return nil }

func (w *watchedTransport) release() {
	for _, l := range w.links {
		l.Link.Close()
	}
}

// checkpointedRun drives a monitor of cfg through a seeded walk that
// violates filters, checkpoints it into a fresh store and closes it,
// returning the store.
func checkpointedRun(t *testing.T, cfg Config) CheckpointStore {
	t.Helper()
	store := MemCheckpoints()
	cfg.Checkpoint = Checkpoint{Store: store}
	mon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	r := rng.New(cfg.Seed, 43)
	vals := make([]int64, cfg.Nodes)
	for s := 0; s < 12; s++ {
		for i := range vals {
			vals[i] += int64(r.Intn(201)) - 100
		}
		if _, err := mon.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRestoreHandshakesEachLinkOnce pins that a restored link-backed
// monitor handshakes each of its links once: the constructor's Assign/Ready
// pair builds the empty banks the value mirror is replayed into, and
// nothing runs a second one. Over a networked transport each link carries
// exactly one Assign frame across Restore; through a tree the root's link
// ledger is exactly one Assign (Down) and one Ready (Up) per root link
// below what a restore that handshook twice charged (recorded below),
// while reports and the model ledgers are those of the networked restore,
// as recorded: a tree charges what every engine charges.
func TestRestoreHandshakesEachLinkOnce(t *testing.T) {
	net := Config{Nodes: 24, K: 4, Seed: 9}
	live := net
	live.Transport = Loopback(3)
	store := checkpointedRun(t, live)
	tr := newWatchedTransport(3)
	defer tr.release()
	net.Transport = tr
	mon, err := Restore(store, net)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range tr.links {
		if l.assigns != 1 {
			t.Errorf("net: link %d carried %d Assign frames across Restore, want 1", i, l.assigns)
		}
	}
	// Counts, Bytes, Phases, Stats and Top after the restore.
	const ledgers = "{197 0 186} {790 0 1142} {{22 0 72} {31 0 37} {144 0 77}} {Steps:12 ViolationSteps:10 HandlerCalls:10 Resets:11 TopChanges:8} [2 3 8 13]"
	if got := fmt.Sprintf("%v %v %v %+v %v", mon.Counts(), mon.Bytes(), mon.Phases(), mon.Stats(), mon.Top()); got != ledgers {
		t.Errorf("net: restored ledgers and report\n%s\nwant\n%s", got, ledgers)
	}
	mon.Close()

	for _, c := range []struct {
		tree     Tree
		down, up int64 // the root's Overhead after a restore that handshook twice
	}{
		{Tree{Branch: 2, Depth: 2}, 16, 16},
		{Tree{Branch: 3, Depth: 1}, 22, 22},
	} {
		cfg := Config{Nodes: 24, K: 4, Seed: 9, Tree: c.tree}
		mon, err := Restore(checkpointedRun(t, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		over, _ := mon.Overhead()
		if b := int64(c.tree.Branch); over.Down != c.down-b || over.Up != c.up-b {
			t.Errorf("%+v: restored Overhead Down/Up %d/%d, want %d/%d", c.tree, over.Down, over.Up, c.down-b, c.up-b)
		}
		if got := fmt.Sprintf("%v %v %v %+v %v", mon.Counts(), mon.Bytes(), mon.Phases(), mon.Stats(), mon.Top()); got != ledgers {
			t.Errorf("%+v: restored ledgers and report\n%s\nwant\n%s", c.tree, got, ledgers)
		}
		mon.Close()
	}
}

// TestRestoreRejectedChainClosesLinks pins that a checkpoint chain the
// restore refuses closes the links the networked monitor took from its
// Transport — the Transport contract leaves them to the monitor — even
// when the Transport's own Close does not.
func TestRestoreRejectedChainClosesLinks(t *testing.T) {
	const n, k = 256, 3 // large enough that a delta fits under a link-backed base
	rec := &recordingStore{inner: MemCheckpoints()}
	cfg := Config{Nodes: n, K: k, Seed: 21}
	live := cfg
	live.Checkpoint = Checkpoint{Store: rec, Every: 3}
	live.Transport = Loopback(2)
	mon, err := New(live)
	if err != nil {
		t.Fatal(err)
	}
	tr := newQuietTrace(n, 2)
	if _, err := mon.Observe(tr.vals); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 6; s++ {
		if _, err := mon.ObserveDelta(tr.step(4)); err != nil {
			t.Fatal(err)
		}
	}
	mon.Close()
	if len(rec.frames) != 2 || rec.frames[1][0] != wire.TypeCheckpointDelta {
		t.Fatalf("the trace left %d frames, want a base and a delta", len(rec.frames))
	}
	var base wire.Checkpoint
	if err := base.Decode(rec.frames[0]); err != nil {
		t.Fatal(err)
	}
	// The base, its delta and the same delta again: the chain's last
	// generation is base+2, the repeated delta's is not.
	forged := wire.CheckpointChain{Frames: [][]byte{rec.frames[0], rec.frames[1], rec.frames[1]}}.Append(nil)
	links := newWatchedTransport(2)
	defer links.release()
	cfg.Transport = links
	m, err := Restore(rawStore{base.Gen + 2, forged}, cfg)
	if m != nil {
		m.Close()
	}
	var re *RestoreError
	if !errors.As(err, &re) {
		t.Fatalf("Restore of a repeated delta returned %v, want a *RestoreError", err)
	}
	for i, l := range links.links {
		if !l.closed {
			t.Errorf("link %d is still open after the chain was refused", i)
		}
	}
}
