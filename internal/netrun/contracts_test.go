package netrun

import (
	"testing"

	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/transport"
)

// hosts is the networked engine as the fan-out contracts build it — node
// hosts behind every link — with this suite's fault schedules.
var hosts = fanouttest.Shape{
	Serve: Serve,
	New: func(cfg Config, links []transport.Link) (*fanout.Engine, error) {
		e, err := New(cfg, links)
		if err != nil {
			return nil, err
		}
		return e.Engine, nil
	},
	KillSeed: 0xc4a05, KillTrials: 4, KillSteps: 100,
	DrainSeed:   0xd6a1,
	MergeVictim: 1, MergeWarm: 20,
	TerminalWarm: 10,
	DeltaLinks:   3,
	TCPLinks:     []int{2},
}

// The contracts both link-backed engines pin; see package fanouttest for
// what each one checks.

func TestChaosFaultMatrix(t *testing.T)         { fanouttest.ChaosFaultMatrix(t, hosts) }
func TestChaosKillAtRandomStep(t *testing.T)    { fanouttest.ChaosKillAtRandomStep(t, hosts) }
func TestChaosKillDuringDrain(t *testing.T)     { fanouttest.ChaosKillDuringDrain(t, hosts) }
func TestChaosKillDuringHandshake(t *testing.T) { fanouttest.ChaosKillDuringHandshake(t, hosts) }
func TestChaosReadersExit(t *testing.T)         { fanouttest.ChaosReadersExit(t, hosts) }
func TestJoinMidStream(t *testing.T)            { fanouttest.JoinMidStream(t, hosts) }
func TestJoinDeadLinkRecovers(t *testing.T)     { fanouttest.JoinDeadLinkRecovers(t, hosts) }
func TestDeadLinkRecoversByMerge(t *testing.T)  { fanouttest.DeadLinkRecoversByMerge(t, hosts) }
func TestAllPeersLostIsTerminal(t *testing.T)   { fanouttest.AllPeersLostIsTerminal(t, hosts) }
func TestRetryBudgetExhaustion(t *testing.T)    { fanouttest.RetryBudgetExhaustion(t, hosts) }
func TestDeltaEquivalence(t *testing.T)         { fanouttest.DeltaEquivalence(t, hosts) }
func TestCloseIdempotent(t *testing.T)          { fanouttest.CloseIdempotent(t, hosts) }
func TestTCPEngine(t *testing.T)                { fanouttest.TCP(t, hosts) }
func TestRedialedHostFlipsItsPredecessorsCoins(t *testing.T) {
	fanouttest.RedialedHostFlipsItsPredecessorsCoins(t, hosts)
}
