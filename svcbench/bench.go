package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// workload is one traffic mix. Each makes one layer do most of the work
// and bypasses the others; BENCHMARK.json records why each was chosen.
type workload struct {
	name    string
	clients int  // closed-loop clients
	durable bool // on-disk WAL with fsync on, seeded population
	remote  bool // shard 1 behind the shard protocol, both shards in memory
	sweep   bool // op is an 18-cell cold sweep instead of a session lifecycle
	// warmupOps is the fixed warm-up that ends every set-up, sized so
	// set-up is hundreds of ms of work and one stall is a few percent.
	warmupOps uint64
}

// The client counts were measured (README.md): one durable client keeps
// its tail the WAL's own fsync tail, and two clients steadied the
// in-memory workloads.
var workloads = map[string]*workload{
	"durable-lifecycle": {name: "durable-lifecycle", clients: 1, durable: true, warmupOps: 300},
	"remote-lifecycle":  {name: "remote-lifecycle", clients: 2, remote: true, warmupOps: 600},
	"cold-sweep":        {name: "cold-sweep", clients: 2, sweep: true, warmupOps: 2 * sweepModels},
}

// setups is how many times a run builds and warms the service; setup_s is
// their median, and the last one serves the timed phase.
const setups = 5

// appendsPerLifecycle is the durable op's WAL records: create, bag, run,
// done and delete.
const appendsPerLifecycle = 5

type bench struct {
	w        *workload
	seed     uint64
	runDir   string
	pristine string // durable: the seeded data dir each set-up copies
	in       *inputs
	refs     refs
	clk      *clock
	next     atomic.Uint64 // op number within the current set-up

	mu                sync.Mutex
	failures          map[string]int
	attempted, failed int
}

func newBench(w *workload, seed uint64, runDir string) *bench {
	return &bench{w: w, seed: seed, runDir: runDir, clk: newClock(),
		refs: refs{by: make(map[int]*reference)}, failures: make(map[string]int)}
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// prepare generates the inputs and, for the durable workload, the seeded
// data dir. None of it is timed.
func (b *bench) prepare() error {
	var err error
	if b.in, err = genInputs(b.w, b.seed); err != nil {
		return err
	}
	if !b.w.durable {
		return nil
	}
	b.pristine = filepath.Join(b.runDir, "pristine")
	if err := os.MkdirAll(b.pristine, 0o755); err != nil {
		return err
	}
	return seedDataDir(b.pristine, b.seed)
}

// setup builds a service with a cold schedule cache and runs the fixed
// warm-up through it, returning the service and the elapsed seconds. It
// first collects the garbage of earlier set-ups and returns it to the OS,
// so every set-up starts from the same heap and none pays for the last.
func (b *bench) setup(tr *tracer) (*service, float64, error) {
	policy.ResetSharedCache()
	debug.FreeOSMemory()
	dataDir := ""
	if b.w.durable {
		dataDir = filepath.Join(b.runDir, "data")
		if err := copyDir(b.pristine, dataDir); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	svc, err := startService(b.w, dataDir, tr)
	if err != nil {
		return nil, 0, err
	}
	b.next.Store(0)
	b.drive(svc, nil, b.w.warmupOps, time.Time{})
	return svc, time.Since(t0).Seconds(), nil
}

// phase is one timed stretch of closed-loop load.
type phase struct {
	ops           []opRecord
	lat           []float64 // ms per completed op, sorted
	wallS         float64
	before, after counters
}

// drive runs the workload's clients until budget ops have been taken (a
// warm-up) or until deadline (a timed phase); an op started before the
// deadline runs to completion. Failed ops are counted with their reason.
func (b *bench) drive(svc *service, tr *tracer, budget uint64, deadline time.Time) *phase {
	ph := &phase{}
	per := make([][]opRecord, b.w.clients)
	var wg sync.WaitGroup
	ph.before = snapshot(svc)
	start := time.Now()
	for i := range per {
		wg.Add(1)
		go func(out *[]opRecord) {
			defer wg.Done()
			c := &client{hc: svc.client, base: "http://" + svc.api.addr}
			for {
				if budget == 0 && !time.Now().Before(deadline) {
					return
				}
				n := b.next.Add(1) - 1
				if budget > 0 && n >= budget {
					return
				}
				var rec opRecord
				var err error
				if b.w.sweep {
					rec, err = b.sweepOp(c, n, b.clk)
				} else {
					rec, err = b.lifecycle(c, n, b.clk)
				}
				b.count(err)
				if err != nil {
					continue
				}
				*out = append(*out, rec)
				if tr != nil {
					tid := traceID(n)
					tr.add(span{Layer: layerOp, Trace: tid, Start: rec.start, End: rec.end})
					if rec.runAck > 0 {
						tr.add(span{Layer: layerWait, Trace: tid, Start: rec.runAck, End: rec.terminal})
					}
				}
			}
		}(&per[i])
	}
	wg.Wait()
	ph.wallS = time.Since(start).Seconds()
	ph.after = snapshot(svc)
	for _, ops := range per {
		ph.ops = append(ph.ops, ops...)
	}
	for _, op := range ph.ops {
		ph.lat = append(ph.lat, float64(op.end-op.start)/1e6)
	}
	sort.Float64s(ph.lat)
	return ph
}

// timed runs the measured phase on a warmed service, after a collection
// so the warm-up's garbage is not collected on the phase's time.
func (b *bench) timed(svc *service, tr *tracer, d time.Duration) *phase {
	if tr != nil {
		tr.reset()
	}
	runtime.GC()
	return b.drive(svc, tr, 0, time.Now().Add(d))
}

func (b *bench) count(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.failures[err.Error()]++
	}
}

// printFailures writes each distinct failure reason with its count.
func (b *bench) printFailures() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for reason, n := range b.failures {
		fmt.Fprintf(os.Stderr, "svcbench: %d failed op(s): %s\n", n, reason)
	}
}

// remoteShare is the share of the phase's sessions the service created on
// shard 1, as its per-shard creation counters recorded them.
func remoteShare(ph *phase) float64 {
	local := float64(ph.after.created[0] - ph.before.created[0])
	remote := float64(ph.after.created[1] - ph.before.created[1])
	return ratio(remote, local+remote)
}

// shapeErrors checks that the phase still exercises the layer its
// workload was chosen for, naming the count that drifted.
func (b *bench) shapeErrors(ph *phase) []error {
	ops := float64(len(ph.ops))
	if ops == 0 {
		return []error{errors.New("ops: no op completed")}
	}
	appends := float64(ph.after.store.Appended - ph.before.store.Appended)
	hits := float64(ph.after.cache.PlannerHits - ph.before.cache.PlannerHits)
	misses := float64(ph.after.cache.PlannerMisses - ph.before.cache.PlannerMisses)
	var errs []error
	switch {
	case b.w.durable:
		if appends != appendsPerLifecycle*ops {
			errs = append(errs, fmt.Errorf("store.appends_per_op = %g, want %d", appends/ops, appendsPerLifecycle))
		}
		if r := ratio(hits, hits+misses); r < 0.99 {
			errs = append(errs, fmt.Errorf("policy.planner_hit_ratio = %g, want ≈ 1", r))
		}
	case b.w.sweep:
		if misses < ops {
			errs = append(errs, fmt.Errorf("policy.planner_misses_per_op = %g, want ≥ 1", misses/ops))
		}
	case b.w.remote:
		if s := remoteShare(ph); s < 0.4 || s > 0.6 {
			errs = append(errs, fmt.Errorf("serve.router.remote_share = %g, want ≈ 0.5", s))
		}
	}
	// Counted from the WAL append histograms of every shard, so an
	// in-memory path that starts persisting anywhere is caught.
	if wal := ph.after.walAppends - ph.before.walAppends; !b.w.durable && wal != 0 {
		errs = append(errs, fmt.Errorf("store.appends_per_op = %g, want 0", wal/ops))
	}
	return errs
}

// untraced is a --trace 0 run: set up several times, then measure the last
// set-up's service with no wrappers and report the end-to-end metrics.
func (b *bench) untraced(d time.Duration) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	var setupS []float64
	var svc *service
	for i := 0; i < setups; i++ {
		s, el, err := b.setup(nil)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, el)
		if i < setups-1 {
			if err := s.close(); err != nil {
				return result{}, err
			}
		} else {
			svc = s
		}
	}
	ph := b.timed(svc, nil, d)
	if err := svc.close(); err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	ops := float64(len(ph.ops))
	res := b.result(b.shapeErrors(ph))
	res.Metrics = map[string]metric{
		"ops_per_s":      {ratio(ops, ph.wallS), "1/s"},
		"latency_p50_ms": {quantile(ph.lat, 0.5), "ms"},
		"cpu_ms_per_op":  {ratio(float64(ph.after.cpuNS-ph.before.cpuNS)/1e6, ops), "ms"},
		"setup_s":        {median(setupS), "s"},
		"max_rss_mb":     {rss, "MB"},
	}
	fmt.Fprintf(os.Stderr, "svcbench: %s: %d ops in %.2f s, setups %v s\n", b.w.name, len(ph.ops), ph.wallS, setupS)
	return res, nil
}

// result fills the contract's accounting; the run is correct when no op
// failed and no guard fired.
func (b *bench) result(errs []error) result {
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "svcbench: check failed: %v\n", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return result{Correct: b.failed == 0 && len(errs) == 0, Attempted: b.attempted, Failed: b.failed}
}
