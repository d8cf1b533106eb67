package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
)

// counters is a snapshot of every count the program keeps at its public
// seams, taken before and after a phase; the phase's figures are deltas.
type counters struct {
	cpuNS      int64 // process user+sys CPU
	cache      policy.CacheStats
	dedup      map[string]uint64 // planner key → dedup waits
	dpSolves   uint64
	dpSolveS   float64
	store      store.Stats
	fsyncs     uint64
	fsyncS     float64
	walAppends float64   // WAL appends summed over every shard label
	created    [2]uint64 // sessions created on shards 0 and 1
	retries    uint64
	gcCycles   uint64
	gcPauseNS  uint64
	heapLiveMB float64
}

// walHist returns shard 0's WAL histogram series by name, as the serving
// layer registered it on obs.Default().
func walHist(name string) *obs.Histogram {
	return obs.Default().Histogram(name, "", nil, "shard", "0")
}

func snapshot(svc *service) counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	c.cache = policy.SharedCacheStats()
	c.dedup = make(map[string]uint64)
	for _, k := range policy.SharedPlannerSolveStats() {
		c.dedup[fmt.Sprintf("%s/%g/%g", k.Model, k.Delta, k.Step)] = k.DedupWaits
	}
	dp := obs.Default().Histogram("batchsvc_dp_solve_seconds", "", nil)
	c.dpSolves, c.dpSolveS = dp.Count(), dp.Sum()
	if svc.log != nil {
		c.store = svc.log.Stats()
		f := walHist("batchsvc_wal_fsync_seconds")
		c.fsyncs, c.fsyncS = f.Count(), f.Sum()
	}
	c.walAppends = familySum("batchsvc_wal_append_seconds_count")
	for i := range c.created {
		c.created[i] = obs.Default().Counter("batchsvc_sessions_created_total", "", "shard", strconv.Itoa(i)).Value()
	}
	if svc.shardS != nil {
		c.retries = obs.Default().Counter("batchsvc_remote_retries_total", "", "shard", "1").Value()
	}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.heapLiveMB = float64(s[1].Value.Uint64()) / (1 << 20)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNS = ms.PauseTotalNs
	return c
}

// familySum sums every series of one sample name, whatever its labels, as
// the default registry renders them at GET /metrics.
func familySum(sample string) float64 {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	obs.Default().WriteTo(w)
	w.Flush()
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, sample+"{") && !strings.HasPrefix(line, sample+" ") {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// dedupWaits sums the growth of every planner's dedup-wait counter. A
// planner evicted during the phase takes its later waits with it, so on
// a workload that evicts this is a lower bound.
func dedupWaits(before, after counters) uint64 {
	var n uint64
	for k, v := range after.dedup {
		if v > before.dedup[k] {
			n += v - before.dedup[k]
		}
	}
	return n
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
