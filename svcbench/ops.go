package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serve"
)

// The lifecycle model is the fixed bathtub model of the service's own
// session benchmarks (ckptBenchConfig), so after warm-up the plan layer is
// a schedule-cache hit on every op and the lifecycles measure transport,
// queueing, simulation and persistence.
var lifecycleModel = serve.ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24}

const (
	checkpointDelta = 0.05
	checkpointStep  = 0.25
	bagApp          = "shapes"
	bagJobs         = 10

	// lifecycleSeeds is the size of the fixed set of session seeds the
	// lifecycle ops cycle through; each seed's reference report is
	// captured the first time it runs and every later op must match it.
	lifecycleSeeds = 64
	// sweepModels is the size of the cold sweep's model set. It is far
	// above the schedule cache's 64 planner slots and cycled in one global
	// order, so every sweep misses the cache. It must stay fixed: evicted
	// planners stay reachable through their warm-start neighbours, so
	// memory grows with the number of distinct models.
	sweepModels = 256
	// sweepJitter bounds each model parameter's relative distance from the
	// lifecycle model, keeping every pair of models within the planner's
	// 10% warm-start tolerance, as refits of one VM type's model are.
	sweepJitter = 0.04
)

// The cold sweep's 18-cell grid: 3 VM types × 3 zones × 2 policies.
var (
	sweepVMTypes  = []string{"n1-highcpu-8", "n1-highcpu-16", "n1-highcpu-32"}
	sweepZones    = []string{"us-east1-b", "us-central1-c", "us-west1-a"}
	sweepPolicies = []string{serve.PolicyReuse, serve.PolicyMemoryless}
	sweepCells    = len(sweepVMTypes) * len(sweepZones) * len(sweepPolicies)
)

// traceTag marks the benchmark's own trace IDs: the top byte is the tag,
// the rest the op number, so a span that carries the header joins its op.
const traceTag = uint64(0xb5) << 56

func traceID(n uint64) string { return fmt.Sprintf("%016x", traceTag|n) }

// opOfTrace returns the op number a trace ID was minted for, or -1.
func opOfTrace(id string) int64 {
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil || len(id) != 16 || v&(0xff<<56) != traceTag {
		return -1
	}
	return int64(v &^ (0xff << 56))
}

// placeholder stands in for the op's trace ID in reference reports: a
// report carries the trace of the request that created its session, which
// is the only byte that may differ between two runs of the same inputs.
var placeholder = []byte("@@@@@@@@@@@@@@@@")

// inputs are the generated requests. The service receives nothing else.
type inputs struct {
	create [][]byte // per lifecycle seed: POST /api/sessions body
	bag    [][]byte // per lifecycle seed: POST .../bags body
	sweep  [][]byte // per sweep model: POST /api/sweep body
}

func genInputs(w *workload, seed uint64) (*inputs, error) {
	rng := newRand(seed, 0x5eed)
	in := &inputs{}
	if w.sweep {
		base := drawSeed(rng)
		for k := 0; k < sweepModels; k++ {
			jit := func(v float64) float64 { return v * (1 + sweepJitter*(2*rng.Float64()-1)) }
			m := lifecycleModel
			m.A, m.Tau1, m.Tau2 = jit(m.A), jit(m.Tau1), jit(m.Tau2)
			body, err := json.Marshal(serve.SweepRequest{
				VMTypes:         sweepVMTypes,
				Zones:           sweepZones,
				Policies:        sweepPolicies,
				VMs:             8,
				CheckpointDelta: checkpointDelta,
				CheckpointStep:  checkpointStep,
				Model:           &m,
				Seed:            base + uint64(k),
				Bag:             serve.BagRequest{App: bagApp, Jobs: bagJobs, Seed: base + uint64(k)},
			})
			if err != nil {
				return nil, err
			}
			in.sweep = append(in.sweep, body)
		}
		return in, nil
	}
	for i := 0; i < lifecycleSeeds; i++ {
		cfg, bag := lifecycleSession(drawSeed(rng))
		c, err := json.Marshal(map[string]any{"config": cfg})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(bag)
		if err != nil {
			return nil, err
		}
		in.create = append(in.create, c)
		in.bag = append(in.bag, b)
	}
	return in, nil
}

// drawSeed draws a service seed; small values keep the JSON short.
func drawSeed(rng *rand.Rand) uint64 { return 1 + rng.Uint64N(1<<30) }

// lifecycleSession is the session config and bag of one lifecycle op.
func lifecycleSession(seed uint64) (serve.SessionConfig, serve.BagRequest) {
	m := lifecycleModel
	return serve.SessionConfig{
			VMType:          "n1-highcpu-16",
			Zone:            "us-east1-b",
			VMs:             4,
			Seed:            seed,
			Model:           &m,
			CheckpointDelta: checkpointDelta,
			CheckpointStep:  checkpointStep,
		},
		serve.BagRequest{App: bagApp, Jobs: bagJobs, Seed: seed}
}

// reference is the expected output for one input: the report bytes with
// the trace ID replaced by placeholder, plus counts read from it once.
type reference struct {
	reports [][]byte // one per session (1 for a lifecycle, 18 for a sweep)
	jobs    int
}

// refs holds the reference outputs, captured the first time each input
// runs (in the first set-up's warm-up) and compared on every later op.
type refs struct {
	mu sync.Mutex
	by map[int]*reference
}

// check compares got against the reference for input k, installing it as
// the reference if k has none yet.
func (r *refs) check(k int, got [][]byte) (*reference, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.by[k]
	if !ok {
		ref = &reference{reports: got}
		for _, rep := range got {
			var v struct {
				Jobs int `json:"jobs_completed"`
			}
			if err := json.Unmarshal(rep, &v); err != nil {
				return nil, fmt.Errorf("report: %v", err)
			}
			ref.jobs += v.Jobs
		}
		if ref.jobs != bagJobs*len(got) {
			return nil, fmt.Errorf("reports of input %d: %d jobs completed, want %d", k, ref.jobs, bagJobs*len(got))
		}
		r.by[k] = ref
		return ref, nil
	}
	for i := range got {
		if !bytes.Equal(got[i], ref.reports[i]) {
			return nil, fmt.Errorf("report %d of input %d differs from its reference", i, k)
		}
	}
	return ref, nil
}

// client is one closed-loop user of the HTTP API.
type client struct {
	hc   *http.Client
	base string
}

// call sends one request and returns the body of a response with the
// wanted status; any other status is an error naming the route.
func (c *client) call(method, path, tid string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Trace-Id", tid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v", method, routeOf(path), err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %v", method, routeOf(path), err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d", method, routeOf(path), resp.StatusCode)
	}
	return out, nil
}

// routeOf replaces the session ID in a path with {id}, so failure reasons
// aggregate by route.
func routeOf(path string) string {
	if id := sessionOfPath(path); id != "" {
		return strings.Replace(path, id, "{id}", 1)
	}
	return path
}

// opRecord is one completed op.
type opRecord struct {
	n          uint64
	start, end int64 // ns since the phase's clock base
	// runAck and terminal bound the wait for the session's run: from the
	// run request's 202 to the terminal state event (lifecycles only).
	runAck, terminal int64
	sessions         []string
	steps            int64
	jobs             int
}

// lifecycle runs one session through create → bag → run → wait on
// /events until terminal → report → delete.
func (b *bench) lifecycle(c *client, n uint64, clk *clock) (opRecord, error) {
	rec := opRecord{n: n, start: clk.now()}
	k := int(n % lifecycleSeeds)
	tid := traceID(n)
	body, err := c.call("POST", "/api/sessions", tid, b.in.create[k], http.StatusCreated)
	if err != nil {
		return rec, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return rec, fmt.Errorf("create: no session id in %q", body)
	}
	id := st.ID
	rec.sessions = []string{id}
	path := "/api/sessions/" + id
	if _, err := c.call("POST", path+"/bags", tid, b.in.bag[k], http.StatusAccepted); err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	if _, err := c.call("POST", path+"/run", tid, nil, http.StatusAccepted); err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	rec.runAck = clk.now()
	events, err := c.call("GET", path+"/events", tid, nil, http.StatusOK)
	if err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	rec.terminal = clk.now()
	final, err := lastState(events)
	if err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	if final.State != string(serve.StateDone) {
		return rec, b.cleanup(c, path, tid, fmt.Errorf("terminal state %q (%s)", final.State, final.Error))
	}
	if final.Progress != nil {
		rec.steps = final.Progress.EngineSteps
	}
	report, err := c.call("GET", path+"/report", tid, nil, http.StatusOK)
	if err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	ref, err := b.refs.check(k, [][]byte{bytes.ReplaceAll(report, []byte(tid), placeholder)})
	if err != nil {
		return rec, b.cleanup(c, path, tid, err)
	}
	rec.jobs = ref.jobs
	if _, err := c.call("DELETE", path, tid, nil, http.StatusOK); err != nil {
		return rec, err
	}
	rec.end = clk.now()
	return rec, nil
}

// cleanup deletes a session whose op failed, so a failure does not leave
// live state behind that later ops would measure; it returns the op's
// error unchanged.
func (b *bench) cleanup(c *client, path, tid string, opErr error) error {
	_, _ = c.call("DELETE", path, tid, nil, http.StatusOK)
	return opErr
}

// sseState is the payload of a `state` event.
type sseState struct {
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress *struct {
		EngineSteps int64 `json:"engine_steps"`
	} `json:"progress"`
}

// lastState parses the final `state` event of an SSE stream.
func lastState(stream []byte) (sseState, error) {
	var st sseState
	i := bytes.LastIndex(stream, []byte("event: state\ndata: "))
	if i < 0 {
		return st, fmt.Errorf("events: no state event in stream")
	}
	data := stream[i+len("event: state\ndata: "):]
	if j := bytes.IndexByte(data, '\n'); j >= 0 {
		data = data[:j]
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("events: %v", err)
	}
	return st, nil
}

// sweepOp posts one 18-cell sweep for the next model of the set, checks
// every cell's report against the model's first visit, then deletes the
// cell sessions.
func (b *bench) sweepOp(c *client, n uint64, clk *clock) (opRecord, error) {
	rec := opRecord{n: n, start: clk.now()}
	k := int(n % sweepModels)
	tid := traceID(n)
	body, err := c.call("POST", "/api/sweep", tid, b.in.sweep[k], http.StatusOK)
	if err != nil {
		return rec, err
	}
	var rep struct {
		Cells []struct {
			SessionID string          `json:"session_id"`
			Error     string          `json:"error"`
			Report    json.RawMessage `json:"report"`
		} `json:"cells"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rec, fmt.Errorf("sweep: %v", err)
	}
	var checkErr error
	reports := make([][]byte, 0, len(rep.Cells))
	for _, cell := range rep.Cells {
		if cell.SessionID != "" {
			rec.sessions = append(rec.sessions, cell.SessionID)
		}
		if cell.Error != "" && checkErr == nil {
			checkErr = fmt.Errorf("sweep: cell error: %s", cell.Error)
		}
		reports = append(reports, bytes.ReplaceAll(cell.Report, []byte(tid), placeholder))
	}
	if checkErr == nil && (len(rep.Cells) != sweepCells || rep.Partial) {
		checkErr = fmt.Errorf("sweep: %d cells (want %d), partial=%v", len(rep.Cells), sweepCells, rep.Partial)
	}
	if checkErr == nil {
		var ref *reference
		if ref, checkErr = b.refs.check(k, reports); checkErr == nil {
			rec.jobs = ref.jobs
		}
	}
	for _, id := range rec.sessions {
		if _, err := c.call("DELETE", "/api/sessions/"+id, tid, nil, http.StatusOK); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	rec.end = clk.now()
	return rec, checkErr
}
