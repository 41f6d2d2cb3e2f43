package netrun

import (
	"testing"

	"repro/internal/fanout/fanouttest"
)

// hosts is this suite's fault schedule for the fan-out contracts, which
// the suite ran when the networked engine was a package of its own.
var hosts = fanouttest.Shape{
	KillSeed: 0xc4a05, KillTrials: 4, KillSteps: 100,
	DrainSeed:   0xd6a1,
	MergeVictim: 1, MergeWarm: 20,
	TerminalWarm: 10,
	DeltaLinks:   3,
	TCPLinks:     []int{2},
}

// The link engine's contracts; see package fanouttest for what each one
// checks.

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
