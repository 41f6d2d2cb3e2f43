package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden from the command as it stands")

// small is the run every golden and async case shares: big enough that all
// four workloads violate, reset and change their top set, small enough that
// the whole matrix takes a second.
const small = "-n 16 -k 3 -steps 200 -seed 7"

var (
	// shapes are the engine shapes of the synchronous matrix; the first five
	// share one ledger for a seed (see TestGoldenOutput).
	shapes = []struct{ name, flags string }{
		{"seq", "-engine seq"},
		{"conc", "-engine conc"},
		{"net1", "-engine net -peers 1"},
		{"net4", "-engine net -peers 4"},
		{"shards1", "-shards 1"},
		{"shards4", "-shards 4"},
		{"tree2x2", "-tree 2^2"},
		{"tree2x3", "-tree 2^3"},
	}
	bitIdentical = 5
	workloads    = []string{"walk", "rotation", "twoband", "converging"}
	epsilons     = []string{"0", "0.05"}
	// modes are the synchronous runs beside the matrix.
	modes = []string{
		small + " -ordered -workload twoband",
		small + " -ordered -engine conc -workload twoband",
		small + " -opt -workload rotation",
		small + " -compare -workload twoband",
		"-trace testdata/trace.csv -k 2 -engine conc",
	}
)

// runOK runs the command in-process and requires a clean exit.
func runOK(t *testing.T, args string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("topkmon %s: exit %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

// golden compares got with testdata/name.golden, or records it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded output (go test ./cmd/topkmon -run TestGoldenOutput -update re-records):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// ledgerOf keeps the lines of one run that every bit-identical engine must
// agree on: the summary from steps= on (the name before it says which engine
// ran), the stats line and the phase ledger.
func ledgerOf(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	_, summary, ok := strings.Cut(lines[0], " steps=")
	if !ok {
		t.Fatalf("no summary line in %q", out)
	}
	keep := []string{summary}
	for i, l := range lines {
		if strings.HasPrefix(l, "stats:") {
			keep = append(keep, l)
		}
		if strings.HasPrefix(l, "phase ledger:") {
			keep = append(keep, lines[i:i+5]...)
		}
	}
	if len(keep) != 7 {
		t.Fatalf("want a summary, a stats line and a five-line ledger in %q", out)
	}
	return strings.Join(keep, "\n")
}

// TestGoldenOutput replays the synchronous flag matrix against the output
// recorded from the command before it stood on topk.Monitor, and holds the
// engines that promise one ledger for a seed — seq, conc, net at any peer
// count, one shard — to it, run by run.
func TestGoldenOutput(t *testing.T) {
	ledgers := map[string]string{} // workload and ε → the ledger shapes[0] printed
	for i, s := range shapes {
		var b strings.Builder
		for _, w := range workloads {
			for _, eps := range epsilons {
				args := small + " -workload " + w + " -epsilon " + eps + " " + s.flags
				out := runOK(t, args)
				b.WriteString("$ topkmon " + args + "\n" + out)
				if i == 0 {
					ledgers[w+eps] = ledgerOf(t, out)
				} else if l := ledgerOf(t, out); i < bitIdentical && l != ledgers[w+eps] {
					t.Errorf("%s ε=%s: %s disagrees with %s:\n%s\n--- want\n%s", w, eps, s.name, shapes[0].name, l, ledgers[w+eps])
				}
			}
		}
		golden(t, s.name, b.String())
	}
	var b strings.Builder
	for _, args := range modes {
		b.WriteString("$ topkmon " + args + "\n" + runOK(t, args))
	}
	golden(t, "modes", b.String())
}

// timing masks what an -async run prints that depends on scheduling: how
// long it took, how many protocol steps the calls coalesced into, and the
// queue counters behind the ratio.
var timing = regexp.MustCompile(`-> \d+ protocol steps in \S+|coalesced=\d+ \(ratio [0-9.]+\)|max-queue=\d+`)

// TestAsyncOutput runs -async on every engine shape: the final report is
// graded against the oracle, every update is enqueued and none dropped, and
// what is left of the output once the timing-dependent counts are masked is
// pinned.
func TestAsyncOutput(t *testing.T) {
	var b strings.Builder
	for _, shape := range []string{"-engine seq", "-engine conc", "-engine net", "-shards 4", "-tree 2^2"} {
		args := small + " -async -workload twoband " + shape
		out := runOK(t, args)
		for _, want := range []string{"verified against the oracle", "ingest: enqueued=", " dropped=0 ", "phase ledger:"} {
			if !strings.Contains(out, want) {
				t.Errorf("topkmon %s: no %q in\n%s", args, want, out)
			}
		}
		masked := timing.ReplaceAllString(out, "…")
		// The ledger is the coalesced steps', so it moves with the timing too.
		masked, _, _ = strings.Cut(masked, "phase ledger:")
		b.WriteString("$ topkmon " + args + "\n" + masked)
	}
	golden(t, "async", b.String())
}

// TestRejectedFlags pins what a refused command line looks like: exit 1,
// exactly one line on stderr, and that line is a message, not a panic.
func TestRejectedFlags(t *testing.T) {
	for _, args := range []string{
		"-steps 0",
		"-steps -3",
		"-steps 0 -trace testdata/trace.csv",
		"-k 0",
		"-k 33",
		"-engine quantum",
		"-workload nosuch",
		"-trace testdata/nosuch.csv",
		"-epsilon 1",
		"-epsilon -0.1",
		"-epsilon NaN",
		"-tree 2x2",
		"-tree 1^2",
		"-tree 2^9",
		"-tree 2^2 -shards 3",
		"-tree 2^2 -engine conc",
		"-tree 2^2 -engine net",
		"-shards 33",
		"-shards -1",
		"-shards 2 -engine conc",
		"-shards 2 -engine net",
		"-engine net -peers 0",
		"-engine net -peers 33",
		"-ordered -engine net",
		"-ordered -shards 2",
		"-ordered -tree 2^2",
		"-ordered -epsilon 0.05",
		"-ordered -async",
		"-async -opt",
		"-async -compare",
		"-async -queue 0",
		"-async -serve 127.0.0.1:0",
		"-checkpoint " + t.TempDir(),
		"-serve 127.0.0.1:0 -checkpoint " + t.TempDir() + " -ckpt-every 0",
		"-serve 127.0.0.1:0 -peers 0",
		"-serve 127.0.0.1:0 -peers 33",
		"-serve 127.0.0.1:0 -k 33",
		"-serve 127.0.0.1:0 -shards 2",
		"-serve 127.0.0.1:0 -tree 2^2",
		"-serve 127.0.0.1:0 -engine conc",
		"-serve 127.0.0.1:0 -ordered",
		"-serve 127.0.0.1:0 -opt",
		"-serve 127.0.0.1:0 -compare",
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		msg := stderr.String()
		if code != 1 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "topkmon: ") || strings.Contains(msg, "goroutine ") {
			t.Errorf("topkmon %s: exit %d, stderr %q; want exit 1 and one topkmon: line", args, code, msg)
		}
		// A refused -serve refuses before it listens: nobody is told to join.
		if stdout.Len() != 0 {
			t.Errorf("topkmon %s: refused, yet printed %q", args, stdout.String())
		}
	}
}
