package shardrun

import (
	"testing"

	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/transport"
)

// star is the flat sharded root as the fan-out contracts build it — a shard
// behind every link — with this suite's fault schedules.
var star = fanouttest.Shape{
	Serve: ServeShard,
	New: func(c fanout.Config, links []transport.Link) (*fanout.Engine, error) {
		e, err := New(Config{
			N: c.N, K: c.K, Seed: c.Seed, Epsilon: c.Epsilon,
			Redial: c.Redial, OnEvent: c.OnEvent,
		}, links)
		if err != nil {
			return nil, err
		}
		return e.Engine, nil
	},
	Delegated: true,
	KillSeed:  0xc4a06, KillTrials: 3, KillSteps: 80,
	DrainSeed:   0xd6a2,
	MergeVictim: 2, MergeWarm: 10,
	TerminalWarm: 8,
	DeltaLinks:   2,
	TCPLinks:     []int{1, 2, 4},
}

// The contracts both link-backed engines pin; see package fanouttest for
// what each one checks.

func TestChaosFaultMatrix(t *testing.T)         { fanouttest.ChaosFaultMatrix(t, star) }
func TestChaosKillAtRandomStep(t *testing.T)    { fanouttest.ChaosKillAtRandomStep(t, star) }
func TestChaosKillDuringDrain(t *testing.T)     { fanouttest.ChaosKillDuringDrain(t, star) }
func TestChaosKillDuringHandshake(t *testing.T) { fanouttest.ChaosKillDuringHandshake(t, star) }
func TestChaosReadersExit(t *testing.T)         { fanouttest.ChaosReadersExit(t, star) }
func TestJoinMidStream(t *testing.T)            { fanouttest.JoinMidStream(t, star) }
func TestJoinDeadLinkRecovers(t *testing.T)     { fanouttest.JoinDeadLinkRecovers(t, star) }
func TestDeadShardRecovers(t *testing.T)        { fanouttest.DeadLinkRecoversByMerge(t, star) }
func TestLastShardLostIsTerminal(t *testing.T)  { fanouttest.AllPeersLostIsTerminal(t, star) }
func TestRetryBudgetExhaustion(t *testing.T)    { fanouttest.RetryBudgetExhaustion(t, star) }
func TestDeltaEquivalence(t *testing.T)         { fanouttest.DeltaEquivalence(t, star) }
func TestCloseIdempotent(t *testing.T)          { fanouttest.CloseIdempotent(t, star) }
func TestTCPShards(t *testing.T)                { fanouttest.TCP(t, star) }
func TestRedialedShardFlipsItsPredecessorsCoins(t *testing.T) {
	fanouttest.RedialedHostFlipsItsPredecessorsCoins(t, star)
}
