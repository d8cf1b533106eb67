package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/store"
)

// storeOptions are batchsvc's default segment and compaction bounds.
var storeOptions = store.Options{
	SegmentMaxBytes: 64 << 20,
	CompactAtBytes:  256 << 20,
}

// seededSessions is the durable workload's data-dir population: completed
// sessions the boot replays (part of setup_s) and that stay live during
// the run.
const seededSessions = 2000

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	addr string
	done chan error
}

// listen serves h on a fresh loopback port. The service is ready when it
// returns: the listener is bound and accepting.
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until its serve loop has returned.
func (s *server) close() error {
	err := s.srv.Close()
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// service is one running instance of the batch service under test.
type service struct {
	router *serve.Router
	api    *server
	shard  *serve.Manager // remote workload: shard 1's executor
	shardS *server
	log    *store.Log // durable workload: shard 0's WAL
	client *http.Client
	// openS and restoreS time the durable boot's two steps.
	openS, restoreS float64
}

// startService builds the workload's service from the public constructors.
// dataDir is the durable workload's WAL directory; tr, when non-nil, puts
// the timing wrappers at every seam.
func startService(w *workload, dataDir string, tr *tracer) (_ *service, err error) {
	svc := &service{}
	defer func() {
		if err != nil {
			svc.close()
		}
	}()
	par := runtime.GOMAXPROCS(0)
	topology := []string{""}
	var opts *serve.RemoteOptions
	if w.remote {
		// Shard 1 runs in this process behind the shard protocol on its
		// own listener, sized as batchsvc sizes a spawned shard.
		svc.shard = serve.NewShardManager((par + 1) / 2)
		svc.shard.SetShardIndex(1)
		h := serve.ShardHandler(svc.shard)
		if tr != nil {
			h = tr.handler(layerShard, h)
			opts = &serve.RemoteOptions{Client: &http.Client{Transport: tr.transport(http.DefaultTransport)}}
		}
		if svc.shardS, err = listen(h); err != nil {
			return nil, err
		}
		topology = append(topology, svc.shardS.addr)
	}
	if svc.router, err = serve.NewRouterTopology(topology, par, opts); err != nil {
		return nil, err
	}
	if w.durable {
		t0 := time.Now()
		if svc.log, err = store.OpenOptions(dataDir, storeOptions); err != nil {
			return nil, err
		}
		svc.openS = time.Since(t0).Seconds()
		var st serve.Store = svc.log
		if tr != nil {
			st = tr.store(svc.log)
		}
		t1 := time.Now()
		if err := svc.router.Restore([]serve.Store{st}); err != nil {
			return nil, err
		}
		svc.restoreS = time.Since(t1).Seconds()
	}
	if w.remote {
		svc.router.SyncRemotes()
	}
	h := serve.NewAPI(svc.router).Handler()
	if tr != nil {
		h = tr.handler(layerAPI, h)
	}
	if svc.api, err = listen(h); err != nil {
		return nil, err
	}
	svc.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}
	return svc, nil
}

// close tears the service down and waits for every goroutine-owning part
// to stop.
func (s *service) close() error {
	var errs []error
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.api != nil {
		errs = append(errs, s.api.close())
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.shardS != nil {
		errs = append(errs, s.shardS.close())
	}
	if s.shard != nil {
		s.shard.Close()
	}
	if s.log != nil {
		errs = append(errs, s.log.Close())
	}
	return errors.Join(errs...)
}

// seedDataDir writes the durable workload's population into dir: seeded
// lifecycle sessions run to completion through the service's own store,
// with fsync off because only the resulting log matters. It then returns
// the memory it used to the OS and resets the process's peak-RSS mark, so
// seeding does not set max_rss_mb.
func seedDataDir(dir string, seed uint64) error {
	log, err := store.OpenOptions(dir, storeOptions)
	if err != nil {
		return err
	}
	log.SetSync(false)
	r, err := serve.NewRouterTopology([]string{""}, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return err
	}
	if err := r.Restore([]serve.Store{log}); err != nil {
		return err
	}
	rng := newRand(seed, 0xda7a)
	for i := 0; i < seededSessions; i++ {
		cfg, bag := lifecycleSession(drawSeed(rng))
		s, err := r.CreateCtx(context.Background(), "", cfg)
		if err == nil {
			_, _, err = s.SubmitBag(bag)
		}
		if err == nil {
			err = r.Run(s)
		}
		if err != nil {
			return fmt.Errorf("seeding session %d: %w", i, err)
		}
	}
	r.Wait()
	r.Close()
	if err := log.Close(); err != nil {
		return err
	}
	if err := syncFiles(dir); err != nil {
		return err
	}
	policy.ResetSharedCache()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// resetPeakRSS resets the kernel's high-water mark of this process's RSS
// to its current RSS (clear_refs "5", Linux 4.0+).
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// syncFiles fsyncs every regular file in dir. Pages the benchmark left
// dirty would otherwise be written back in the timed phase, about 30 s
// later, and ext4's ordered mode makes the WAL's fsyncs wait for them.
func syncFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// copyDir copies the regular files of src (one level; a shard-0 data dir
// has no subdirectories) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync() // see syncFiles
	}
	if err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
