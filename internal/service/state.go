// Durable state for the serving layer: with Options.StateDir set, the
// server persists one snapshot in an internal/persist store, the
// verdict cache, so repeat traffic replays from cache after a restart.
// New restores it when it opens the state dir. Compiled designs are
// not persisted: a design's first request after a restart compiles it
// (X-Design-Cache: miss). No search state is persisted either: none
// outlives a check. The flush path runs periodically and at drain.
// Every disk failure mode degrades to a cold start by the persist
// layer's contract — this file never has to reason about torn or
// corrupt files.
package service

import (
	"context"
	"time"

	"repro/internal/persist"
)

// The verdict-cache snapshot (core.VerdictCache.Snapshot bytes):
// cone-keyed records survive restarts, so a rebooted server answers
// repeat CI traffic from cache on its first request.
const (
	verdictKind    = "verdicts"
	verdictSnapKey = "cache"
)

// StateError returns the error that kept the state dir from opening
// (nil when state is disabled or healthy). assertd refuses to start on
// it — a server asked to persist state must not silently run without.
func (s *Server) StateError() error { return s.stateErr }

// restoreVerdicts loads the verdict-cache snapshot into the empty
// cache. A missing, corrupt or undecodable snapshot degrades to an
// empty cache, never an error.
func (s *Server) restoreVerdicts() {
	blob, err := s.state.Load(context.TODO(), verdictKind, verdictSnapKey)
	if err != nil {
		if err != persist.ErrNotExist {
			s.logf("state: verdict snapshot unavailable (%v); starting cold", err)
		}
		return
	}
	n, err := s.verdicts.Restore(blob)
	if err != nil {
		s.logf("state: verdict snapshot undecodable (%v); starting cold", err)
		return
	}
	s.logf("state: restored %d cached verdicts", n)
}

// FlushState writes the verdict cache when it mutated since the last
// successful flush. The mutation counter is in-process only and a
// restore does not advance it, so a restarted server rewrites the
// snapshot only after its first new verdict. Safe for concurrent use;
// errors are also latched for /healthz.
func (s *Server) FlushState(ctx context.Context) error {
	if s.state == nil {
		return nil
	}
	err := s.flushVerdicts(ctx)
	s.lastFlushNano.Store(time.Now().UnixNano())
	if err != nil {
		msg := err.Error()
		s.lastFlushErr.Store(&msg)
	} else {
		s.lastFlushErr.Store(nil)
	}
	return err
}

// flushVerdicts saves the verdict cache if it mutated since its last save.
func (s *Server) flushVerdicts(ctx context.Context) error {
	muts := s.verdicts.Mutations()
	if muts == s.lastVerdictMuts.Load() {
		return nil
	}
	blob, err := s.verdicts.Snapshot()
	if err != nil {
		return err
	}
	if err := s.state.Save(ctx, verdictKind, verdictSnapKey, blob); err != nil {
		return err
	}
	s.lastVerdictMuts.Store(muts)
	return nil
}

// RunStateFlusher flushes on a StateInterval ticker until ctx is
// cancelled (the caller follows drain with one final FlushState so
// mutations from in-flight requests are captured). No-op without a
// state store.
func (s *Server) RunStateFlusher(ctx context.Context) {
	if s.state == nil {
		return
	}
	t := time.NewTicker(s.opts.StateInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.FlushState(ctx); err != nil {
				s.logf("state: flush failed: %v", err)
			}
		}
	}
}

// healthState is the /healthz state block: snapshot inventory, the
// recovery counters, and the age/outcome of the last flush.
type healthState struct {
	Enabled     bool    `json:"enabled"`
	Snapshots   int     `json:"snapshots"`
	Bytes       int64   `json:"bytes"`
	Quarantines int64   `json:"quarantines"`
	FlushAgeS   float64 `json:"flush_age_s"` // -1 until the first flush
	LastError   string  `json:"last_error,omitempty"`
}

// stateHealth snapshots the state block for /healthz.
func (s *Server) stateHealth() healthState {
	hs := healthState{FlushAgeS: -1}
	if s.state == nil {
		return hs
	}
	hs.Enabled = true
	st := s.state.Stats()
	hs.Snapshots = st.Snapshots
	hs.Bytes = st.Bytes
	hs.Quarantines = st.Quarantines
	if nano := s.lastFlushNano.Load(); nano > 0 {
		hs.FlushAgeS = time.Since(time.Unix(0, nano)).Seconds()
	}
	if msg := s.lastFlushErr.Load(); msg != nil {
		hs.LastError = *msg
	}
	return hs
}
