//fmeter:nondeterministic-ok benchmark harness: set-up stages are timed on the wall clock

package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"time"

	fmeter "repro"
	"repro/internal/core"
)

// store is a loaded database behind a live fmeter server on a loopback
// listener, plus what the harness knows went into it.
type store struct {
	model *core.Model
	db    *fmeter.DB
	// sigs is every signature the harness put into db, in insertion
	// order: what the oracle ranks.
	sigs []core.Signature

	srv      *fmeter.Server
	httpSrv  *http.Server
	url      string
	serveErr chan error
}

// setupTimes are the stages of one set-up.
type setupTimes struct {
	total, fit, transform time.Duration
	chunks                []time.Duration // one per AddAll of loadChunk signatures
}

// buildStore is one set-up, as a deployment would do it: fit the model
// on the corpus, embed and normalise the documents, bulk-load them in
// chunks, seal if the workload serves a sealed store, and put the
// server on a listener. The only knob it sets is WithShards; the store
// and the server run at the defaults fmeter-serve ships.
func buildStore(w workload, procs int, stored, later []*core.Document, snapshotDir string, wrap func(http.Handler) http.Handler) (*store, setupTimes, error) {
	var tm setupTimes
	start := time.Now()

	// The model sees the documents that arrive later too, so that their
	// class functions carry weight when the server embeds them.
	corpus, err := fmeter.NewCorpus(dim)
	if err != nil {
		return nil, tm, err
	}
	for _, docs := range [][]*core.Document{stored, later} {
		for _, d := range docs {
			if err := corpus.Add(d); err != nil {
				return nil, tm, err
			}
		}
	}
	model, err := corpus.Fit()
	if err != nil {
		return nil, tm, err
	}
	tm.fit = time.Since(start)

	t := time.Now()
	sigs, err := embed(model, stored)
	if err != nil {
		return nil, tm, err
	}
	tm.transform = time.Since(t)

	db, err := fmeter.NewDB(dim, fmeter.WithShards(procs))
	if err != nil {
		return nil, tm, err
	}
	for i := 0; i < len(sigs); i += loadChunk {
		t = time.Now()
		if err := db.AddAll(sigs[i:min(i+loadChunk, len(sigs))]); err != nil {
			db.Close()
			return nil, tm, err
		}
		tm.chunks = append(tm.chunks, time.Since(t))
	}
	if w.sealed {
		db.Seal()
	}

	st := &store{model: model, db: db, sigs: sigs}
	if err := st.serve(snapshotDir, wrap); err != nil {
		db.Close()
		return nil, tm, err
	}
	tm.total = time.Since(start)
	return st, tm, nil
}

// embed is the program's own document → unit signature path.
func embed(model *core.Model, docs []*core.Document) ([]core.Signature, error) {
	sigs, err := model.TransformAll(docs)
	if err != nil {
		return nil, err
	}
	core.Normalize(sigs)
	return sigs, nil
}

// serve starts the fmeter server over st.db with the default
// ServeConfig and mounts it on a loopback listener, as fmeter-serve
// does. wrap, when non-nil, goes around the server's handler (the
// traced run's span middleware).
func (st *store) serve(snapshotDir string, wrap func(http.Handler) http.Handler) error {
	srv, err := fmeter.NewServer(st.db, st.model, fmeter.ServeConfig{SnapshotDir: snapshotDir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // closes the DB; the listen error is what matters
		return err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	st.srv, st.httpSrv = srv, &http.Server{Handler: h}
	st.url = "http://" + ln.Addr().String()
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()
	return nil
}

// shutdown drains the listener and the server and closes the DB, in the
// order fmeter-serve does on SIGTERM, and waits for the serve goroutine.
func (st *store) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.httpSrv.Shutdown(ctx)
	if serr := <-st.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, st.srv.Shutdown(ctx))
}

// liveHeapMiB is the heap's live bytes after a forced collection:
// HeapAlloc, which counts objects, not HeapInuse, which counts the spans
// they sit in and moves by several percent between identical runs.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
