// Durable state for the serving layer: with Options.StateDir set, the
// server keeps two snapshots in an internal/persist store — a
// design-cache manifest (the most-recently-used designs' sources, so
// a restarted server recompiles them before taking traffic and the
// first post-restart request is a design-cache hit) and the verdict
// cache (so repeat traffic replays from cache after a restart). No
// search state is persisted: none outlives a check. The flush path
// runs periodically and at drain; the load path runs once at startup
// (Rewarm). Every disk failure mode degrades to a cold start by the
// persist layer's contract — this file never has to reason about torn
// or corrupt files.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"repro/internal/persist"
)

const (
	manifestKind = "manifest"
	manifestKey  = "designs"
	// manifestVersion guards the manifest JSON layout.
	manifestVersion = 1
	// manifestDesigns bounds how many MRU designs the manifest records
	// and Rewarm recompiles at startup.
	manifestDesigns = 16

	// The verdict-cache snapshot (core.VerdictCache.Snapshot bytes):
	// cone-keyed records survive restarts, so a rebooted server answers
	// repeat CI traffic from cache on its first request.
	verdictKind    = "verdicts"
	verdictSnapKey = "cache"
)

// manifest is the design-cache warm-restart record: the sources of the
// most-recently-used designs, MRU first. It is JSON (inside the
// persist store's validated envelope) — keys are hex and sources are
// Verilog text, all UTF-8-safe.
type manifest struct {
	Version int              `json:"version"`
	Designs []manifestDesign `json:"designs"`
}

type manifestDesign struct {
	Key string `json:"key"`
	Top string `json:"top"`
	Src string `json:"src"`
}

// StateEnabled reports whether the server opened a durable state dir.
func (s *Server) StateEnabled() bool { return s.state != nil }

// StateError returns the error that kept the state dir from opening
// (nil when state is disabled or healthy). assertd refuses to start on
// it — a server asked to persist state must not silently run without.
func (s *Server) StateError() error { return s.stateErr }

// FlushState writes the design-cache manifest (when its MRU content
// changed since the last write — except the first flush of a process,
// which always writes) and the verdict cache (when it mutated). Safe
// for concurrent use; errors are also latched for /healthz.
func (s *Server) FlushState(ctx context.Context) error {
	if s.state == nil {
		return nil
	}
	err := s.flushManifest(ctx)
	if s.verdicts != nil {
		if verr := s.flushVerdicts(ctx); verr != nil && err == nil {
			err = verr
		}
	}
	now := time.Now().UnixNano()
	s.lastFlushNano.Store(now)
	if err != nil {
		msg := err.Error()
		s.lastFlushErr.Store(&msg)
	} else {
		s.lastFlushErr.Store(nil)
	}
	return err
}

// flushManifest snapshots the design cache's MRU ordering. The change
// hash is tracked in-process only, so a restarted server's first flush
// always rewrites the manifest even when its content matches the
// on-disk one.
func (s *Server) flushManifest(ctx context.Context) error {
	m := manifest{Version: manifestVersion}
	for _, key := range s.designs.Keys() {
		if len(m.Designs) >= manifestDesigns {
			break
		}
		e, ok := s.designs.Peek(key)
		if !ok || !e.done.Load() || e.err != nil {
			continue
		}
		m.Designs = append(m.Designs, manifestDesign{Key: key, Top: e.top, Src: e.src})
	}
	blob, err := json.Marshal(m)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(blob)
	hash := hex.EncodeToString(sum[:])
	s.manifestMu.Lock()
	unchanged := s.lastManifest == hash
	s.manifestMu.Unlock()
	if unchanged {
		return nil
	}
	if err := s.state.Save(ctx, manifestKind, manifestKey, blob); err != nil {
		return err
	}
	s.manifestMu.Lock()
	s.lastManifest = hash
	s.manifestMu.Unlock()
	return nil
}

// flushVerdicts snapshots the verdict cache when it mutated since the
// last successful flush (the mutation counter is in-process only, so a
// restarted server's first mutated flush always writes).
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

// Rewarm loads the design-cache manifest and recompiles its designs
// (MRU first, at most manifestDesigns), so the cache is hot before the
// listener opens: the first post-restart request for a manifest design
// is an X-Design-Cache hit. A missing, corrupt or undecodable manifest
// — or any individual design that no longer compiles — degrades to a
// cold cache, never an error. Returns the number of designs warmed.
func (s *Server) Rewarm(ctx context.Context) int {
	if s.state == nil {
		return 0
	}
	s.rewarmVerdicts(ctx)
	blob, err := s.state.Load(ctx, manifestKind, manifestKey)
	if err != nil {
		if err != persist.ErrNotExist {
			s.logf("state: manifest unavailable (%v); starting cold", err)
		}
		return 0
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil || m.Version != manifestVersion {
		s.logf("state: manifest undecodable (version %d, %v); starting cold", m.Version, err)
		return 0
	}
	warmed := 0
	// Compile in reverse so the MRU design ends up most recent in the
	// rewarmed cache, matching the order it was saved with.
	for i := len(m.Designs) - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			break
		}
		md := m.Designs[i]
		if i >= manifestDesigns {
			continue
		}
		if _, _, err := s.design(md.Src, md.Top); err != nil {
			s.logf("state: manifest design %.12s no longer compiles (%v); skipped", md.Key, err)
			continue
		}
		warmed++
	}
	s.logf("state: rewarmed %d designs from manifest", warmed)
	return warmed
}

// rewarmVerdicts restores the verdict-cache snapshot, so verdicts for
// repeat traffic survive restarts. A missing, corrupt or undecodable
// snapshot degrades to an empty cache, never an error.
func (s *Server) rewarmVerdicts(ctx context.Context) {
	if s.verdicts == nil {
		return
	}
	blob, err := s.state.Load(ctx, verdictKind, verdictSnapKey)
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

// RunStateFlusher flushes on a StateInterval ticker until ctx is
// cancelled (the caller follows drain with one final FlushState so
// mutations from in-flight requests are captured). No-op without a
// state dir.
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
