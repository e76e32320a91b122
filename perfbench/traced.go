package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/atpg"
)

// serveMiniTime is how long a batch workload's traced run drives the
// serving layers, which its own loop never touches.
const serveMiniTime = 4 * time.Second

// tracedRun measures every layer. The workload's own loop runs first,
// half untraced and half traced, which gives trace.overhead_share; the
// layers the loop skips are then driven briefly, and the micro-probes
// run last. Spans go to .bench_build/spans-<workload>-<seed>.json.
func tracedRun(ctx context.Context, workload string, seed int64, dur time.Duration) (outcome, error) {
	tr := newTracer()
	out := outcome{m: metrics{}}
	var c *corpus
	var t *traffic
	var loopCounts *atpg.Stats // the ATPG loop's per-pass counts, when it ran
	switch workload {
	case "atpg-batch", "portfolio-batch":
		portfolio := workload == "portfolio-batch"
		b, warm, _, err := setupBatch(ctx, portfolio, seed)
		if err != nil {
			return out, err
		}
		out.merge(warm.outcome())
		plain, traced := newBatchRecorder(), newBatchRecorder()
		if err := b.measure(ctx, plain, nil, dur/2, 0); err != nil {
			return out, err
		}
		if err := b.measure(ctx, traced, tr, dur/2, 0); err != nil {
			return out, err
		}
		out.merge(plain.outcome())
		out.merge(traced.outcome())
		perPass := func(r *batchRecorder) float64 { return r.wall().Seconds() / float64(len(r.passes)) }
		out.m.set("trace.overhead_share", perPass(traced)/perPass(plain)-1)
		traced.layerMetrics(b.jobs, out.m)
		c = b.c
		if !portfolio {
			loopCounts = &plain.countPass
		}
		if portfolio {
			traced.portfolioMetrics(out.m)
		} else {
			rec, err := portfolioMini(ctx, c, seed, tr)
			if err != nil {
				return out, err
			}
			out.merge(rec.outcome())
			rec.portfolioMetrics(out.m)
		}
		if t, err = newTraffic(seed); err != nil {
			return out, err
		}
		sv, err := serveLayer(ctx, t, tr, serveMiniTime, false)
		if err != nil {
			return out, err
		}
		out.merge(sv)
	case "serve-mix":
		var err error
		if t, err = newTraffic(seed); err != nil {
			return out, err
		}
		sv, err := serveLayer(ctx, t, tr, dur, true)
		if err != nil {
			return out, err
		}
		out.merge(sv)
		b, warm, _, err := setupBatch(ctx, true, seed)
		if err != nil {
			return out, err
		}
		out.merge(warm.outcome())
		rec := newBatchRecorder()
		if err := b.pass(ctx, rec, tr); err != nil {
			return out, err
		}
		out.merge(rec.outcome())
		rec.layerMetrics(b.jobs, out.m)
		rec.portfolioMetrics(out.m)
		c = b.c
	}
	counts, err := probes(ctx, workload, c, t, &out)
	if err != nil {
		return out, err
	}
	if loopCounts != nil && countsOf(*loopCounts) != countsOf(counts) {
		out.wrong = append(out.wrong, fmt.Sprintf("atpg counts: CheckAll pass %v, CheckCtx pass %v",
			countsOf(*loopCounts), countsOf(counts)))
	}
	path := fmt.Sprintf(".bench_build/spans-%s-%d.json", workload, seed)
	if err := tr.write(path); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	return out, nil
}

// portfolioMini runs one warm-up and one traced portfolio pass over an
// already compiled corpus.
func portfolioMini(ctx context.Context, c *corpus, seed int64, tr *tracer) (*batchRecorder, error) {
	b := newBatchBench(c, true, seed)
	if err := b.pass(ctx, newBatchRecorder(), nil); err != nil {
		return nil, err
	}
	rec := newBatchRecorder()
	return rec, b.pass(ctx, rec, tr)
}

// probes runs the micro-probes shared by every traced run and returns
// the ATPG counts of one corpus pass. The compile probe times the
// workload's own sources.
func probes(ctx context.Context, workload string, c *corpus, t *traffic, out *outcome) (atpg.Stats, error) {
	srcs := corpusSources()
	if workload == "serve-mix" {
		srcs = serveSources(t)
	}
	if err := compileProbe(ctx, srcs, out.m); err != nil {
		return atpg.Stats{}, err
	}
	bvProbe(out.m)
	if err := propagateProbe(c, out.m); err != nil {
		return atpg.Stats{}, err
	}
	counts, wrong, err := atpgProbe(ctx, c, out.m)
	if err != nil {
		return counts, err
	}
	out.wrong = append(out.wrong, wrong...)
	countMetrics(counts, out.m)
	return counts, nil
}

// serveLayer drives the fleet at the base rate with every serving
// surface wrapped. With withOverhead it first drives an unwrapped fleet
// for the same schedule length and reports the latency cost of tracing.
func serveLayer(ctx context.Context, t *traffic, tr *tracer, dur time.Duration, withOverhead bool) (outcome, error) {
	out := outcome{m: metrics{}}
	n := int(baseRate * dur.Seconds())
	if withOverhead {
		n /= 2
	}
	var plainP50 float64
	if withOverhead {
		f, _, err := serveSetup(ctx, t, nil)
		if err != nil {
			return out, err
		}
		reqs, err := t.schedule(n, baseRate)
		if err != nil {
			f.close()
			return out, err
		}
		samples := f.drive(ctx, reqs, 0)
		plainP50 = quantile(latencyMs(samples), 0.5)
		failed, wrong, err := judgeSamples(ctx, f, samples)
		f.close()
		if err != nil {
			return out, err
		}
		out.attempted += len(samples)
		out.failed += failed
		out.wrong = append(out.wrong, wrong...)
	}
	obs := newServeObserver(tr)
	f, _, err := serveSetup(ctx, t, obs)
	if err != nil {
		return out, err
	}
	defer f.close()
	obs.reset()
	before := f.ledger()
	_, retries0, pass0, err := f.routerHealth()
	if err != nil {
		return out, err
	}
	reqs, err := t.schedule(n, baseRate)
	if err != nil {
		return out, err
	}
	var queuedMax int
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, s := range f.servers {
					queuedMax = max(queuedMax, s.Queued())
				}
			}
		}
	}()
	samples := f.drive(ctx, reqs, 0)
	close(stop)
	sampler.Wait()
	after := f.ledger()
	_, retries1, pass1, err := f.routerHealth()
	if err != nil {
		return out, err
	}
	failed, wrong, err := judgeSamples(ctx, f, samples)
	if err != nil {
		return out, err
	}
	out.attempted += len(samples)
	out.failed += failed
	out.wrong = append(out.wrong, wrong...)

	obs.mu.Lock()
	defer obs.mu.Unlock()
	for _, class := range []string{"repeat", "edit", "cold"} {
		out.m.set("service.handler_p50_ms."+class, median(obs.handlerMs[class]))
	}
	out.m.set("service.queued_max", float64(queuedMax))
	out.m.set("service.shed", float64(after.shed-before.shed))
	out.m.set("service.design_cache_hit_ratio", ratio(float64(after.dHits-before.dHits),
		float64(after.dHits-before.dHits+after.dMisses-before.dMisses)))
	out.m.set("service.verdict_cache_hit_ratio", ratio(float64(after.vHits-before.vHits),
		float64(after.vHits-before.vHits+after.vMisses-before.vMisses)))
	out.m.set("router.overhead_p50_ms", median(obs.overheadMs))
	out.m.set("router.subreq_per_req", ratio(float64(obs.subreqs), float64(obs.routed)))
	out.m.set("router.passthrough_share", ratio(float64(pass1-pass0), float64(obs.routed)))
	out.m.set("router.retries", float64(retries1-retries0))
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = ms(s.lag)
	}
	out.m.set("loadgen.lag_p99_ms", quantile(lags, 0.99))
	if withOverhead {
		out.m.set("trace.overhead_share", quantile(latencyMs(samples), 0.5)/plainP50-1)
	}
	return out, nil
}

// serveLedger sums the replicas' cumulative counters.
type serveLedger struct {
	shed, dHits, dMisses, vHits, vMisses int64
}

func (f *fleet) ledger() serveLedger {
	var l serveLedger
	for _, s := range f.servers {
		l.shed += s.Shed()
		d := s.DesignCacheStats()
		l.dHits += d.Hits
		l.dMisses += d.Misses
		v := s.VerdictCacheStats()
		l.vHits += v.Hits
		l.vMisses += v.Misses
	}
	return l
}
