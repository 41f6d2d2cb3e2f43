package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stream"
	"repro/topk"
)

// ckptChain is a run of saved frames: a base and what was saved after it.
type ckptChain struct {
	gens   []uint64
	frames [][]byte
}

func (c ckptChain) bytes() (total int) {
	for _, f := range c.frames {
		total += len(f)
	}
	return total
}

// ckptProbe is the checkpoint store E25 measures through: MemCheckpoints
// behind a recorder of every frame's size and kind (the first byte: 0x17 is
// a base frame) and of the frames of the running chain; ended is the chain
// the last save ended by writing a base, if it did.
type ckptProbe struct {
	inner        topk.CheckpointStore
	saves, bases int
	bytes        int64
	cur          ckptChain
	ended        *ckptChain
}

func (p *ckptProbe) Save(gen uint64, frame []byte) error {
	p.saves++
	p.bytes += int64(len(frame))
	p.ended = nil
	if len(frame) > 0 && frame[0] == 0x17 {
		p.bases++
		if done := p.cur; len(done.frames) > 0 {
			p.ended = &done
		}
		p.cur = ckptChain{}
	}
	p.cur.gens, p.cur.frames = append(p.cur.gens, gen), append(p.cur.frames, append([]byte(nil), frame...))
	return p.inner.Save(gen, frame)
}

func (p *ckptProbe) Load() (uint64, []byte, error) { return p.inner.Load() }

// E25CheckpointChain prices a checkpoint every 16 steps on the sequential
// engine by how much of the bank a step moves: bytes and time per save,
// how many of the saves were base frames, and what restoring costs from the
// longest chain the run produced. It drives the public API only, so the
// same file measures a build that writes a full frame every time (every
// save a base, every chain one frame long) and one that writes deltas.
func E25CheckpointChain(sc Scale) Table {
	t := Table{
		ID:    "E25",
		Title: "checkpoints that cost what changed: a base frame plus value deltas",
		Claim: "a save costs O(nodes observed since the last one), not O(n), while steps charge no message; a chain's deltas never outgrow its base, so restoring stays within twice a lone base",
		Columns: []string{
			"n", "changed/step", "saves", "bytes/save", "B/node/save", "us/save", "base share",
			"chain frames", "chain bytes", "restore ms", "lone base ms",
		},
	}
	const every, k = 16, 16
	exps := []int{min(14, sc.CkptMaxExp), sc.CkptMaxExp}
	if exps[0] == exps[1] {
		exps = exps[:1]
	}
	for _, exp := range exps {
		n := 1 << exp
		movers := []int{n} // the dense end of the sweep
		for _, sparse := range []int{1024, 64, 16} {
			if sparse < n {
				movers = append([]int{sparse}, movers...)
			}
		}
		for _, changed := range movers {
			cfg := topk.Config{Nodes: n, K: k, Seed: 1}
			probe := &ckptProbe{inner: topk.MemCheckpoints()}
			live := cfg
			live.Checkpoint = topk.Checkpoint{Store: probe, Every: every}
			mon, err := topk.New(live)
			if err != nil {
				panic(err)
			}
			src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Lo: 0, Hi: 1 << 20, MaxStep: 4, Changed: changed, Seed: 1})
			ids, vals := make([]int, n), make([]int64, n)
			step := func() time.Duration {
				c := src.StepDelta(ids, vals)
				start := time.Now()
				if _, err := mon.ObserveDelta(ids[:c], vals[:c]); err != nil {
					panic(err)
				}
				return time.Since(start)
			}
			step() // the first call carries every node and pays the time-0 reset

			// Timed stretch: the calls that checkpoint against the median
			// call that does not.
			saves := max(sc.Steps/10, 4)
			if n == changed {
				saves = max(saves/4, 4) // a dense step at n = 2^18 is milliseconds
			}
			var plain []time.Duration
			var saving time.Duration
			first := probe.saves
			bytes0, bases0 := probe.bytes, probe.bases
			for probe.saves < first+saves {
				before := probe.saves
				if d := step(); probe.saves > before {
					saving += d
				} else {
					plain = append(plain, d)
				}
			}
			sort.Slice(plain, func(i, j int) bool { return plain[i] < plain[j] })
			perSave := float64(saving)/float64(saves) - float64(plain[len(plain)/2])
			bytes, bases := float64(probe.bytes-bytes0)/float64(saves), float64(probe.bases-bases0)/float64(saves)

			// The longest chain: run on until a base is cut that no charged
			// message explains — the one cut for size, which ends a chain
			// at its bound — or a budget of steps runs out.
			longest, ledger := ckptChain{}, mon.Counts()
			for tries := 0; tries < 40*saves; tries++ {
				before := probe.saves
				if step(); probe.saves == before {
					continue
				}
				moved := mon.Counts() != ledger
				ledger = mon.Counts()
				if probe.ended == nil {
					continue
				}
				if len(probe.ended.frames) > len(longest.frames) {
					longest = *probe.ended
				}
				if !moved {
					break
				}
			}
			if len(probe.cur.frames) > len(longest.frames) {
				longest = probe.cur // the budget ran out inside the longest chain
			}
			mon.Close()

			restore := func(gens []uint64, frames [][]byte) float64 {
				store := topk.MemCheckpoints()
				for i, f := range frames {
					if err := store.Save(gens[i], f); err != nil {
						panic(err)
					}
				}
				var ms []float64
				for i := 0; i < 5; i++ {
					start := time.Now()
					back, err := topk.Restore(store, cfg)
					if err != nil {
						panic(fmt.Sprintf("E25: restore from a chain of %d frames: %v", len(frames), err))
					}
					ms = append(ms, float64(time.Since(start))/1e6)
					back.Close()
				}
				sort.Float64s(ms)
				return ms[len(ms)/2]
			}
			t.AddRow(F("2^%d", exp), F("%d", changed), F("%d", saves),
				F("%.0f", bytes), F("%.3f", bytes/float64(n)), F("%.1f", perSave/1e3), F("%.1f%%", 100*bases),
				F("%d", len(longest.frames)), F("%d", longest.bytes()),
				F("%.3f", restore(longest.gens, longest.frames)), F("%.3f", restore(longest.gens[:1], longest.frames[:1])))
		}
	}
	t.Note("sequential engine, k = %d, a checkpoint every %d steps into MemCheckpoints; the workload is ckpt-seq-sparse's (values in [0, 2^20], a move of at most 4) at the given number of movers a step", k, every)
	t.Note("us/save = mean call that checkpoints - median call that does not: frame encode plus the store's Save; base share = saves that wrote a full frame")
	t.Note("chain = the frames from one base up to the next (the longest seen before a base was cut for size alone, or the step budget ran out); restore ms = topk.Restore from that chain, lone base ms = from its first frame only; medians of 5")
	return t
}
