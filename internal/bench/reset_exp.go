package bench

import (
	"time"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// resetSide is one way to find the k+1 largest keys of a field: what it
// charged, how many broadcast rounds it ran, how long it took.
type resetSide struct {
	up, bcast, rounds, ns []float64
}

func (s *resetSide) add(c *comm.Counter, rounds int, d time.Duration) {
	s.up = append(s.up, float64(c.Get(comm.Up)))
	s.bcast = append(s.bcast, float64(c.Get(comm.Bcast)))
	s.rounds = append(s.rounds, float64(rounds))
	s.ns = append(s.ns, float64(d.Nanoseconds()))
}

// resetTrials is the seed count of E24 at n = 2^exp: the protocol
// experiments' count up to 2^14, thinning to a tenth of it (30 at full
// scale) at 2^20, where one reference reset takes about half a second.
func resetTrials(sc Scale, exp int) int {
	switch {
	case exp <= 14:
		return sc.ProtoTrials
	case exp <= 16:
		return max(sc.ProtoTrials/3, 1)
	case exp <= 18:
		return max(sc.ProtoTrials/6, 1)
	}
	return max(sc.ProtoTrials/10, 1)
}

// E24ResetSweep prices FILTERRESET both ways over the same fields and the
// same generators: as Algorithm 1 spells it (lines 36-42) — k+1 maximum
// executions, each over the nodes no earlier one won — and as this
// repository runs it — one execution for the k+1 largest keys (the top-k
// selection of Biermeier et al., arXiv:1709.07259, protocol.Exec with
// want = k+1). Both are Las Vegas-exact; the sweep must not pay for its
// fewer rounds with more messages.
func E24ResetSweep(sc Scale) Table {
	t := Table{
		ID:    "E24",
		Title: "FILTERRESET: one top-(k+1) sweep vs k+1 maximum executions",
		Claim: "the sweep is exact in ceil(log2 n)+1 rounds and charges no more messages than the k+1 executions at any (n, k)",
		Columns: []string{
			"n", "k", "seeds", "up ref", "up sweep", "up ×", "bcast ref", "bcast sweep",
			"msgs ref", "msgs sweep", "msgs ×", "rounds ref", "rounds sweep", "ms ref", "ms sweep", "time ×", "wrong",
		},
	}
	var ex protocol.Exec
	var in protocol.InPlay
	var risen []string
	for exp := 6; exp <= sc.ResetMaxExp; exp += 2 {
		n := 1 << exp
		for _, k := range []int{1, 8, 16, 64} {
			if k >= n {
				continue
			}
			want, trials := k+1, resetTrials(sc, exp)
			var ref, sweep resetSide
			diff := make([]float64, 0, trials) // sweep up − reference up, per seed
			wrong := 0
			for trial := 0; trial < trials; trial++ {
				seed := uint64(n)*15485863 + uint64(k)*32452843 + uint64(trial)
				root := rng.New(seed, 0xe24)
				keys := make([]order.Key, n)
				for i, p := range root.Perm(n) {
					keys[i] = order.Key(p + 1)
				}
				f := protocol.KeyField(keys)
				// The keys are a permutation of 1..n: winner i holds n-i.
				check := func(i int, w protocol.Winner) {
					if w.Key != int64(n-i) || int64(keys[w.ID]) != w.Key {
						wrong++
					}
				}

				var c comm.Counter
				rounds, winners := 0, make([]int, 0, want)
				start := time.Now()
				for i := 0; i < want; i++ {
					in.EnlistExcept(n, winners)
					ex.Begin(n, 1, false, &c, nil, int64(i)) // a step of its own: coins of its own
					f.Run(&in, &ex, order.Tol{}, seed)
					res := ex.Result()
					check(i, protocol.Winner{ID: res.ID, Key: int64(res.Key)})
					winners, rounds = append(winners, res.ID), rounds+res.Rounds
				}
				ref.add(&c, rounds, time.Since(start))

				c.Reset()
				start = time.Now()
				in.EnlistExcept(n, nil)
				ex.Begin(n, want, false, &c, nil, 0)
				f.Run(&in, &ex, order.Tol{}, seed)
				sweep.add(&c, ex.Result().Rounds, time.Since(start))
				if len(ex.Winners()) != want {
					wrong++
				}
				for i, w := range ex.Winners() {
					check(i, w)
				}
				diff = append(diff, sweep.up[trial]-ref.up[trial])
			}
			upRef, upSweep := stats.Mean(ref.up), stats.Mean(sweep.up)
			msgsRef, msgsSweep := upRef+stats.Mean(ref.bcast), upSweep+stats.Mean(sweep.bcast)
			msRef, msSweep := stats.Mean(ref.ns)/1e6, stats.Mean(sweep.ns)/1e6
			t.AddRow(F("2^%d", exp), F("%d", k), F("%d", trials),
				F("%.1f", upRef), F("%.1f", upSweep), F("%.2f", upSweep/upRef),
				F("%.1f", stats.Mean(ref.bcast)), F("%.1f", stats.Mean(sweep.bcast)),
				F("%.1f", msgsRef), F("%.1f", msgsSweep), F("%.2f", msgsSweep/msgsRef),
				F("%.0f", stats.Mean(ref.rounds)), F("%.0f", stats.Mean(sweep.rounds)),
				F("%.3f", msRef), F("%.3f", msSweep), F("%.1f", msRef/msSweep), F("%d", wrong))
			if mean, hw := stats.MeanCI(diff, 2); mean > hw {
				risen = append(risen, F("n=2^%d k=%d (+%.1f ± %.1f of %.1f)", exp, k, mean, hw, upRef))
			}
		}
	}
	t.Note("ref: k+1 maximum executions, each over the nodes no earlier one won; sweep: one execution for the k+1 largest; same keys (a random permutation of 1..n) and the same coin seed on both sides")
	t.Note("up ×, msgs × = sweep / ref (base: the ref column); time × = ref / sweep (base: ms sweep); rounds = broadcast rounds per reset")
	if len(risen) == 0 {
		t.Note("up-messages rise beyond two standard errors of the per-seed difference at no cell")
	} else {
		t.Note("up-messages rise beyond two standard errors of the per-seed difference at: %v — total messages still fall there (msgs ×)", risen)
	}
	return t
}
