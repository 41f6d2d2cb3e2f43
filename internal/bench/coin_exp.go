package bench

import (
	"math"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// parentCoinExec is one execution for the want largest keys the way nodes
// ran it while each carried a generator: node i draws its round-r trial
// from gens[i] (RNG.BernoulliPow2), every other rule the round kernel's. It
// returns the up-messages charged.
func parentCoinExec(keys []order.Key, gens []rng.RNG, active []int32, want int) float64 {
	n := len(keys)
	active = active[:n]
	for i := range active {
		active[i] = int32(i)
	}
	var c comm.Counter
	ex := protocol.NewExec(n, want, false, &c, nil, 0)
	for ex.More() {
		r, cut := uint(ex.Round()), ex.Best()
		kept := active[:0]
		for _, i := range active {
			switch {
			case cut > keys[i]:
			case gens[i].BernoulliPow2(r, uint64(n)):
				ex.Bid(int(i), keys[i])
			default:
				kept = append(kept, i)
			}
		}
		active = kept
		ex.EndRound()
	}
	return float64(c.Get(comm.Up))
}

// E26KeyedCoin measures what replacing a node's generator with a keyed
// function of (seed, step, tag, round, id) does to the one quantity a coin
// decides: the up-messages of an execution. Same keys on both sides, the
// parent's coin drawn from per-node generators, the keyed coin from
// rng.Coin — one keyed word per 64 ids — through the round kernel, whose
// sparse rounds visit only the ids that hit; want = 1 is Algorithm 2 (Theorem 4.2:
// at most 2·log2(N) + 1 expected), want = 17 a FILTERRESET's sweep at
// k = 16.
func E26KeyedCoin(sc Scale) Table {
	t := Table{
		ID:    "E26",
		Title: "Up-messages per execution: per-node generators vs the keyed coin",
		Claim: "the keyed coin's mean is within two standard errors of the generator coin's at every N, and under 2*log2(N)+1 for want = 1",
		Columns: []string{
			"N", "want", "executions", "up generators", "up keyed", "difference", "in 2 s.e.", "2log2(N)+1",
		},
	}
	trials := max(1000*sc.ProtoTrials/300, 100)
	outside, over := 0, 0
	var in protocol.InPlay
	var ex protocol.Exec
	for exp := 6; exp <= sc.ResetMaxExp; exp += 2 {
		n := 1 << exp
		root := rng.New(uint64(n)*104729, 0xe26)
		f := protocol.Field{Keys: make([]order.Key, n)}
		for i, p := range root.Perm(n) {
			f.Keys[i] = order.Key(p + 1)
		}
		gens, active := make([]rng.RNG, n), make([]int32, n)
		for i := range gens {
			gens[i] = root.SplitValue(uint64(i))
		}
		for _, want := range []int{1, 17} {
			parent, keyed := make([]float64, trials), make([]float64, trials)
			for trial := range parent {
				parent[trial] = parentCoinExec(f.Keys, gens, active, want)
				var c comm.Counter
				in.EnlistExcept(n, nil)
				ex.Begin(n, want, false, &c, nil, int64(trial)) // a step of its own: coins of its own
				f.Run(&in, &ex, order.Tol{}, uint64(n))
				keyed[trial] = float64(c.Get(comm.Up))
			}
			pm, pse := stats.MeanCI(parent, 1)
			km, kse := stats.MeanCI(keyed, 1)
			se := math.Hypot(pse, kse)
			within := "yes"
			if math.Abs(km-pm) > 2*se {
				within, outside = "NO", outside+1
			}
			bound := "—"
			if want == 1 {
				b := 2*float64(exp) + 1
				if bound = F("%.0f", b); km > b {
					over++
				}
			}
			t.AddRow(F("2^%d", exp), F("%d", want), F("%d", trials),
				F("%.2f ± %.2f", pm, pse), F("%.2f ± %.2f", km, kse), F("%+.2f ± %.2f", km-pm, se), within, bound)
		}
	}
	t.Note("mean ± standard error over the executions; difference = keyed − generators, its standard error the two sides' combined; one random permutation of 1..N per N, the same on both sides")
	t.Note("%d cells outside two standard errors, %d want = 1 cells over the Theorem 4.2 bound", outside, over)
	return t
}
