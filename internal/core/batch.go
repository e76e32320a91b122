package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/property"
)

// BatchOptions tunes CheckAll.
type BatchOptions struct {
	// Jobs is the worker-pool size (0 = GOMAXPROCS). It bounds how many
	// properties are checked concurrently; a portfolio engine multiplies
	// that by its member count in goroutines, but each worker still
	// occupies one batch slot.
	Jobs int
	// Engine selects the decision procedure each worker runs. Nil means
	// this checker's ATPG path (equivalent to passing c.ATPGEngine());
	// pass c.Portfolio() to race engines per property, or any custom
	// Engine.
	Engine Engine
	// Cache, when non-nil, short-circuits properties whose cone-keyed
	// verdict is already cached (verdictcache.go): hits are replayed
	// verbatim (FromCache set) without dispatching a worker, and fresh
	// deterministic verdicts are stored back. Ignored when a custom
	// Engine outside the canonical set is passed (its configuration is
	// invisible to the cache key).
	Cache *VerdictCache
}

// CheckAll checks a batch of properties concurrently on a bounded
// worker pool and returns the results in input order (results[i]
// belongs to props[i], whatever order the workers finish in).
// Cancelling ctx stops the batch: queued properties return
// VerdictUnknown without starting, and in-flight engines observe the
// cancellation through their own ctx plumbing.
//
// Per-result AllocBytes/AllocObjects stay zero in batch mode: the
// memstats deltas Check reports are process-wide, so with concurrent
// workers they would misattribute each other's allocations.
func (c *Session) CheckAll(ctx context.Context, props []property.Property, opts BatchOptions) []Result {
	results := make([]Result, len(props))
	if len(props) == 0 {
		return results
	}
	eng := opts.Engine
	if eng == nil {
		eng = c.ATPGEngine()
	}
	// Verdict-cache consultation: resolve the key meta once (it gates
	// itself off for unkeyable engines and fingerprint-less designs on
	// non-ATPG engines), then split the batch into replayed hits and
	// pending re-checks.
	cache := opts.Cache
	var keys []string
	if cache != nil {
		meta := ""
		switch eng.Name() {
		case EngineATPG, EngineBMC, EngineBDD, EnginePortfolio:
			meta = c.cacheMeta(eng.Name())
		}
		if meta == "" {
			cache = nil
		} else {
			keys = make([]string, len(props))
			for i, p := range props {
				keys[i] = verdictKey(c.d.PropertyConeHash(p), p, meta)
			}
		}
	}
	pending := make([]int, 0, len(props))
	for i := range props {
		if cache != nil {
			if rec, ok := cache.Get(keys[i]); ok {
				results[i] = resultFromRecord(rec)
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(pending) {
		jobs = len(pending)
	}
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					results[i] = Result{
						Property: props[i].Name,
						Verdict:  VerdictUnknown,
						Engine:   eng.Name(),
					}
					continue
				}
				results[i] = safeCheck(eng, ctx, Problem{
					NL: c.nl, Prop: props[i], MaxDepth: c.opts.MaxDepth,
				})
				if cache != nil && cacheableVerdict(results[i].Verdict) {
					cache.Put(keys[i], RecordFromResult(results[i]))
				}
			}
		}()
	}
	for _, i := range pending {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// safeCheck runs one engine check with panic isolation: a panicking
// engine run — a poisoned property, a bug tripped by one design —
// degrades to an attributed VerdictError record instead of unwinding
// the worker goroutine and killing the process. Shared by the CheckAll
// worker pool and the portfolio's member goroutines.
func safeCheck(eng Engine, ctx context.Context, prob Problem) (res EngineResult) {
	defer func() {
		if r := recover(); r != nil {
			res = EngineResult{
				Property: prob.Prop.Name,
				Verdict:  VerdictError,
				Engine:   eng.Name(),
				Err:      fmt.Sprintf("panic: %v", r),
			}
		}
	}()
	return eng.Check(ctx, prob)
}
