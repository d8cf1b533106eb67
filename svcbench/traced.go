package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceDir receives the traced run's spans, one file per workload.
const traceDir = "svcbench/.out"

// traced is a --trace 1 run. It measures the workload untraced for half
// the time, then on a fresh service with a timing wrapper at every seam
// for the other half, and reports the per-layer breakdown of the traced
// half, its residual and the tracing overhead. It asserts that the
// wrappers change none of the counts the untraced half made.
func (b *bench) traced(d time.Duration) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	plain, _, err := b.setup(nil)
	if err != nil {
		return result{}, err
	}
	phA := b.timed(plain, nil, d/2)
	if err := plain.close(); err != nil {
		return result{}, err
	}

	tr := newTracer(b.clk)
	svc, _, err := b.setup(tr)
	if err != nil {
		return result{}, err
	}
	phB := b.timed(svc, tr, d/2)
	if err := svc.close(); err != nil {
		return result{}, err
	}
	spans := tr.take()

	opSet := make(map[int64]bool, len(phB.ops))
	sessionOp := make(map[string]int64)
	var jobs int
	var steps int64
	for _, op := range phB.ops {
		opSet[int64(op.n)] = true
		for _, id := range op.sessions {
			sessionOp[id] = int64(op.n)
		}
		jobs += op.jobs
		steps += op.steps
	}
	bd := analyse(spans, opSet, sessionOp)

	errs := append(b.shapeErrors(phA), b.shapeErrors(phB)...)
	errs = append(errs, b.wrapperErrors(tr, phA, phB)...)

	ops := float64(len(phB.ops))
	per := func(v float64) float64 { return ratio(v, ops) }
	a, z := phB.before, phB.after
	appends := float64(z.store.Appended - a.store.Appended)
	hits := float64(z.cache.PlannerHits - a.cache.PlannerHits)
	misses := float64(z.cache.PlannerMisses - a.cache.PlannerMisses)
	dpMS := (z.dpSolveS - a.dpSolveS) * 1000
	// The DP solve has no public seam of its own: its time comes from the
	// solve histogram and is taken out of the self time of the layer that
	// runs it — the sweep request, or the session's run wait.
	selfAPI, selfWait := bd.self[layerAPI], bd.self[layerWait]
	if b.w.sweep {
		selfAPI -= dpMS
	} else {
		selfWait -= dpMS
	}
	var selfSum float64
	for _, s := range bd.self {
		selfSum += s
	}
	opsA, opsB := ratio(float64(len(phA.ops)), phA.wallS), ratio(ops, phB.wallS)
	// The tail is taken over both halves, as many ops as an untraced run
	// of the same length completes, so enough samples lie beyond p999.
	lat := append(append([]float64(nil), phA.lat...), phB.lat...)
	sort.Float64s(lat)

	res := b.result(errs)
	res.Metrics = map[string]metric{
		"bench.client_ms_per_op": {per(bd.self[layerOp]), "ms"},
		"bench.latency_p999_ms":  {quantile(lat, 0.999), "ms"},

		"serve.api.requests_per_op":   {per(float64(bd.count[layerAPI])), "count"},
		"serve.api.handler_ms_per_op": {per(bd.dur[layerAPI]), "ms"},
		"serve.api.self_ms_per_op":    {per(selfAPI), "ms"},
		"serve.api.non2xx_per_op":     {per(float64(bd.non2xx)), "count"},

		"serve.remote.round_trips_per_op":  {per(float64(bd.count[layerRT])), "count"},
		"serve.remote.rt_ms_per_op":        {per(bd.dur[layerRT]), "ms"},
		"serve.remote.self_ms_per_op":      {per(bd.self[layerRT]), "ms"},
		"serve.remote.retries_per_op":      {per(float64(z.retries - a.retries)), "count"},
		"serve.remote.bytes_per_op":        {per(float64(bd.rtBytes)), "B"},
		"serve.shardapi.handler_ms_per_op": {per(bd.dur[layerShard]), "ms"},
		"serve.router.restore_s":           {svc.restoreS, "s"},
		"serve.router.remote_share":        {remoteShare(phB), "ratio"},
		"serve.manager.run_wait_ms_per_op": {per(bd.dur[layerWait]), "ms"},
		"serve.manager.self_ms_per_op":     {per(selfWait), "ms"},
		"batch.jobs_per_op":                {per(float64(jobs)), "count"},
		"batch.engine_steps_per_op":        {per(float64(steps)), "count"},
		"policy.planner_hit_ratio":         {ratio(hits, hits+misses), "ratio"},
		"policy.planner_misses_per_op":     {per(misses), "count"},
		"policy.dp_solves_per_op":          {per(float64(z.dpSolves - a.dpSolves)), "count"},
		"policy.dp_solve_ms_per_op":        {per(dpMS), "ms"},
		"policy.warm_seed_ratio":           {ratio(float64(z.cache.PlannerWarmSeeds-a.cache.PlannerWarmSeeds), misses), "ratio"},
		"policy.dedup_waits_per_op":        {per(float64(dedupWaits(a, z))), "count"},
		"store.appends_per_op":             {per(appends), "count"},
		"store.append_ms_per_op":           {per(bd.dur[layerStore]), "ms"},
		"store.fsyncs_per_append":          {ratio(float64(z.fsyncs-a.fsyncs), appends), "ratio"},
		"store.fsync_ms_per_op":            {per((z.fsyncS - a.fsyncS) * 1000), "ms"},
		"store.wal_bytes_per_op":           {per(float64(z.store.WALBytes - a.store.WALBytes)), "B"},
		"store.compactions":                {float64(z.store.Compactions - a.store.Compactions), "count"},
		"store.open_s":                     {svc.openS, "s"},
		"go.gc_cycles_per_kop":             {per(float64(z.gcCycles-a.gcCycles) * 1000), "count"},
		"go.gc_pause_ms_per_s":             {ratio(float64(z.gcPauseNS-a.gcPauseNS)/1e6, phB.wallS), "ms/s"},
		"go.heap_live_mb":                  {z.heapLiveMB, "MB"},
		"trace.residual":                   {1 - ratio(selfSum, bd.opMS), "ratio"},
		"trace.overhead":                   {1 - ratio(opsB, opsA), "ratio"},
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s.jsonl", b.w.name))
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "svcbench: %s: untraced %d ops in %.2f s, traced %d ops in %.2f s, %d spans in %s\n",
		b.w.name, len(phA.ops), phA.wallS, len(phB.ops), phB.wallS, len(spans), path)
	return res, nil
}

// wrapperErrors checks that the traced half ran the same program as the
// untraced one: the store wrapper received the optional calls serve makes
// on a real log, and the durable counts per op are unchanged.
func (b *bench) wrapperErrors(tr *tracer, phA, phB *phase) []error {
	if !b.w.durable {
		return nil
	}
	var errs []error
	if tr.instrumented.Load() == 0 {
		errs = append(errs, fmt.Errorf("store wrapper: serve never called Instrument on it"))
	}
	if tr.triggerSet.Load() == 0 {
		errs = append(errs, fmt.Errorf("store wrapper: serve never called SetCompactionTrigger on it"))
	}
	perOp := func(ph *phase) (appends, fsyncsPerAppend, compactions float64) {
		ap := float64(ph.after.store.Appended - ph.before.store.Appended)
		return ratio(ap, float64(len(ph.ops))),
			ratio(float64(ph.after.fsyncs-ph.before.fsyncs), ap),
			float64(ph.after.store.Compactions - ph.before.store.Compactions)
	}
	apA, fsA, cA := perOp(phA)
	apB, fsB, cB := perOp(phB)
	if apA != apB {
		errs = append(errs, fmt.Errorf("store.appends_per_op: untraced %g, traced %g", apA, apB))
	}
	// Group commit makes fsyncs per append depend on concurrency, which
	// tracing perturbs; a wrapper that dropped Instrument reads 0.
	if (fsA == 0) != (fsB == 0) || math.Abs(fsB-fsA) > 0.25*fsA {
		errs = append(errs, fmt.Errorf("store.fsyncs_per_append: untraced %g, traced %g", fsA, fsB))
	}
	if cA != cB {
		errs = append(errs, fmt.Errorf("store.compactions: untraced %g, traced %g", cA, cB))
	}
	return errs
}
