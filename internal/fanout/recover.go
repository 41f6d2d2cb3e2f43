package fanout

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coord"
	"repro/internal/transport"
	"repro/internal/wire"
)

// retryBudget returns the configured recovery-attempt bound.
func (c Config) retryBudget() int {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return 3
}

// retryBackoff returns the configured base recovery backoff.
func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 10 * time.Millisecond
}

// Err returns the engine's terminal failure, or nil. Recoverable peer
// failures do not set it (see Health); it becomes non-nil only once
// recovery is abandoned — retry budget exhausted or no peers left. Once
// set, the engine is wedged: observation calls return the last
// successfully computed report without touching the links, and the ledger
// stops advancing. Close remains safe.
func (e *Engine) Err() error { return e.err }

// Health reports the engine's failover state: terminal error (if any),
// whether a recovery is pending, cumulative failure/recovery counters and
// the live peer ranges.
func (e *Engine) Health() coord.Health {
	h := coord.Health{
		Terminal:   e.err,
		Degraded:   e.pendingRecovery,
		Failures:   e.failures,
		Recoveries: e.recoveries,
	}
	for _, p := range e.fan.peers {
		h.Peers = append(h.Peers, coord.PeerHealth{Lo: p.lo, Hi: p.hi, Failures: p.failures})
	}
	return h
}

// emit delivers one failover event to the configured callback.
func (e *Engine) emit(ev coord.Event) {
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// fail records a peer failure and schedules recovery: the peer is marked
// dead, the current step is abandoned (callers unwind returning the
// last-good report), and the next observation call runs the recovery
// pass. The engine stays usable — only abandoned recovery sets Err.
func (e *Engine) fail(pi int, op string, err error) error {
	p := e.fan.peers[pi]
	p.dead = true
	p.failures++
	e.failures++
	e.pendingRecovery = true
	e.emit(coord.Event{Kind: coord.EventPeerDown, Lo: p.lo, Hi: p.hi, Err: err})
	return fmt.Errorf("fanout: peer [%d, %d): %s: %w", p.lo, p.hi, op, err)
}

// terminal records an unrecoverable failure; the engine returns last-good
// reports from here on.
func (e *Engine) terminal(err error) error {
	e.err = err
	e.emit(coord.Event{Kind: coord.EventTerminal, Lo: 0, Hi: e.cfg.N, Err: err})
	return err
}

// recoverNow runs the recovery pass scheduled by fail: abort whatever the
// machine had in flight, restore the peer set (redial or merge), rerun
// the Assign handshake everywhere, replay the mirrored node values, and
// force a FILTERRESET so membership is re-derived from live state. Each
// full attempt is retried with jittered exponential backoff up to the
// retry budget; exhausting it (or losing every peer) is terminal.
func (e *Engine) recoverNow() error {
	budget := e.cfg.retryBudget()
	backoff := e.cfg.retryBackoff()
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff/2 + time.Duration(e.rrng.Uint64n(uint64(backoff))))
			if backoff < time.Second {
				backoff *= 2
			}
		}
		e.mach.Abort()
		if err := e.restorePeers(); err != nil {
			return err // all peers lost: already terminal
		}
		if err := e.reassignReplayReset(); err != nil {
			continue // a peer died during the attempt; retry
		}
		e.pendingRecovery = false
		e.recoveries++
		e.emit(coord.Event{Kind: coord.EventRecovered, Lo: 0, Hi: e.cfg.N})
		return nil
	}
	return e.terminal(fmt.Errorf("fanout: recovery abandoned after %d attempts", budget))
}

// restorePeers fixes the peer set: every dead peer is either replaced by
// a freshly dialed link adopting its exact range (Config.Redial) or its
// range is merged into a surviving neighbor. Ranges stay contiguous and
// cover [0, N). A dead link's transport statistics are folded into
// e.retired before it is dropped, so TransportStats stays monotone.
// Returns the terminal error if no peers survive.
func (e *Engine) restorePeers() error {
	for _, p := range e.fan.peers {
		if !p.dead {
			continue
		}
		if p.req != nil {
			close(p.req)
			p.req, p.res = nil, nil
		}
		p.link.Close()
		e.retired = e.retired.Add(transport.StatsOf(p.link))
		if e.cfg.Redial == nil {
			continue
		}
		nl, err := e.cfg.Redial()
		if err != nil {
			continue // merge below
		}
		p.link = nl
		p.dead = false
		p.owed = 0
		if e.fan.readers {
			startReader(p)
		}
		e.emit(coord.Event{Kind: coord.EventPeerReplaced, Lo: p.lo, Hi: p.hi})
	}
	// Merge the still-dead ranges: into the preceding survivor when one
	// exists, otherwise into the next (a leading dead run extends the
	// first survivor's range downward).
	survivors := make([]*peer, 0, len(e.fan.peers))
	orphanLo := -1
	for _, p := range e.fan.peers {
		if p.dead {
			e.emit(coord.Event{Kind: coord.EventRangeMerged, Lo: p.lo, Hi: p.hi})
			if len(survivors) > 0 {
				survivors[len(survivors)-1].hi = p.hi
			} else if orphanLo == -1 {
				orphanLo = p.lo
			}
			continue
		}
		if orphanLo != -1 {
			p.lo = orphanLo
			orphanLo = -1
		}
		survivors = append(survivors, p)
	}
	if len(survivors) == 0 {
		return e.terminal(errors.New("fanout: all peers lost"))
	}
	e.fan.peers = survivors
	return nil
}

// assignment is what the Assign handshake tells every peer, its own range
// apart.
func (e *Engine) assignment() wire.Assign {
	return wire.Assign{
		Lo: 0, Hi: e.cfg.N, N: e.cfg.N, K: e.cfg.K,
		Seed: e.cfg.Seed, EpsNum: e.mach.Tol().Num(),
	}
}

// reassignReplayReset is the uniform reconfiguration step shared by
// recovery, Join and Restore: quiesce every link (dropping queued
// commands and draining a survivor's outstanding pre-failure reply — the
// strict request/reply discipline bounds that to one frame), re-run the
// Assign handshake (the servers rebuild their banks from scratch), replay
// the mirrored node values, and drive a forced FILTERRESET. Recovery
// frames are charged to the link ledger like any other coordination
// traffic. Any peer failing here is marked dead and the error returned;
// the caller retries or gives up.
func (e *Engine) reassignReplayReset() error {
	for pi, p := range e.fan.peers {
		p.queue.Reset()
		if p.owed == 0 {
			continue
		}
		if _, err := e.fan.await(pi, "recovery drain"); err != nil {
			return err
		}
	}
	if err := e.fan.assign(e.assignment()); err != nil {
		return err
	}
	// Replay the current value of every node from the coordinator-side
	// mirror, coded against the zero every rebuilt bank holds. Rebuilt
	// banks hold full filters, so no violations fire; the replies' flags
	// are deliberately discarded.
	for pi, p := range e.fan.peers {
		e.buf = wire.Observe{Step: e.mach.Step(), Vals: e.last[p.lo:p.hi]}.Append(e.buf[:0])
		if err := e.fan.ship(pi, e.buf, "replay"); err != nil {
			return err
		}
	}
	for pi := range e.fan.peers {
		if err := e.collect(pi, "replay reply"); err != nil {
			return err
		}
		if _, err := e.fan.Reply(pi, "replay reply"); err != nil {
			return err
		}
	}
	// Re-derive membership, filters and bounds from the replayed values.
	e.step = e.mach.Step()
	return e.runEffects(e.mach.ForceReset())
}

// Join attaches a late-joining peer mid-stream: the widest surviving
// range is split and its upper half handed to the new link, then the
// engine runs the same reassign/replay/reset cycle as failover so every
// bank and filter is consistent before the next step. Call it between
// observation calls only. On error the link is closed; a failure during
// the cycle leaves recovery pending for the next observation call.
func (e *Engine) Join(link transport.Link) error {
	err := e.ready("Join")
	wi, width := -1, 1
	for i, p := range e.fan.peers {
		if w := p.hi - p.lo; w > width {
			wi, width = i, w
		}
	}
	if err == nil && wi == -1 {
		err = errors.New("fanout: no splittable range (every peer hosts a single node)")
	}
	if err != nil {
		link.Close()
		return err
	}
	w := e.fan.peers[wi]
	mid := (w.lo + w.hi) / 2
	np := &peer{link: link, lo: mid, hi: w.hi}
	w.hi = mid
	peers := append(e.fan.peers, nil)
	copy(peers[wi+2:], peers[wi+1:])
	peers[wi+1] = np
	e.fan.peers = peers
	if e.fan.readers {
		startReader(np)
	}
	e.emit(coord.Event{Kind: coord.EventPeerJoined, Lo: np.lo, Hi: np.hi})
	e.mach.Abort()
	if err := e.reassignReplayReset(); err != nil {
		return fmt.Errorf("fanout: join: %w", err)
	}
	return nil
}
