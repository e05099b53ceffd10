//fmeter:nondeterministic-ok benchmark harness: saves and opens are timed on the wall clock

package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fmeter "repro"
	"repro/internal/core"
)

// persisted is what the save / close / reopen phase observed.
type persisted struct {
	saveFullMs, saveIncrMs           []float64
	coldOpenMs, openMs, firstQueryMs []float64
	openMappedMs                     []float64
	bytesFull                        int64
	bytesIncr, filesIncr             []float64
	diskBytesPerSig                  float64
	mappedBytes                      int64
	compactedReopenOK                bool
	attempted, failed                int
	problems                         []string
	// reopened is the last resident open, left open when asked for.
	reopened *store
}

func (p *persisted) op(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.problems) < 5 {
			p.problems = append(p.problems, err.Error())
		}
	}
}

// dirState maps the files of dir to their size and modification time.
func dirState(dir string) (map[string][2]int64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	state := make(map[string][2]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		state[e.Name()] = [2]int64{info.Size(), info.ModTime().UnixNano()}
	}
	return state, nil
}

// written counts the files of after that before lacks or holds in
// another version, and their bytes.
func written(before, after map[string][2]int64) (files int, bytes int64) {
	for name, st := range after {
		if old, ok := before[name]; !ok || old != st {
			files++
			bytes += st[0]
		}
	}
	return files, bytes
}

func totalBytes(state map[string][2]int64) int64 {
	var n int64
	for _, st := range state {
		n += st[0]
	}
	return n
}

// timedSave saves db into dir and reports what the save wrote. Like
// every timed operation of this phase it starts from a fresh collection
// of the Go heap: the phase runs with the generated documents live, and
// whether a collector cycle that marks them all falls inside a save or an
// open is what moved these times most between identical runs.
func timedSave(dir string, db *fmeter.DB) (d time.Duration, files int, bytes int64, err error) {
	before, err := dirState(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	t := time.Now()
	if err := fmeter.SaveDB(dir, db); err != nil {
		return 0, 0, 0, err
	}
	d = time.Since(t)
	after, err := dirState(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	files, bytes = written(before, after)
	return d, files, bytes, nil
}

// verifyStore checks a reopened db against what was saved: the length,
// and the oracle's cosine top-k for every checked probe.
func verifyStore(db *fmeter.DB, wantLen int, ps *probeSet) error {
	if db.Len() != wantLen {
		return fmt.Errorf("reopened store holds %d signatures, saved %d", db.Len(), wantLen)
	}
	for j := 0; j < checkedProbes; j++ {
		hits, err := db.TopKSparse(ps.sigs[j].W, topkK, core.CosineMetric())
		if err != nil {
			return err
		}
		ids, scores := make([]string, len(hits)), make([]float64, len(hits))
		for i, h := range hits {
			ids[i], scores[i] = h.Signature.DocID, h.Score
		}
		if _, ok := matchTopK(ps.wantTopK[j][topkCosine], ids, scores); !ok {
			return fmt.Errorf("reopened store, probe %d: got %v, oracle %v", j, ids, ps.wantTopK[j][topkCosine])
		}
	}
	return nil
}

// persistPhase consumes st: it takes the listener down, saves the store
// in full and incrementally, closes it, and reopens it the way
// fmeter-serve would after a restart, checking after every reopen that
// nothing acknowledged was lost. appends are the documents added
// between incremental saves. With mapped, it also measures the mapped
// open and probes a compacted store. With keepOpen the last reopened
// store is returned open in p.reopened.
func persistPhase(st *store, ps *probeSet, appends []*core.Document, dir string, procs int, sz sizes, mapped, keepOpen bool) (*persisted, error) {
	p := &persisted{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The store's coalescer goroutine and DB end with this function on
	// every path; after the drain further down this does nothing more.
	defer func() { _ = st.srv.Shutdown(ctx) }()
	if err := st.httpSrv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-st.serveErr; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}

	live := ""
	for i, start := 0, time.Now(); !enough(i, time.Since(start), sz.fullSaves[0], sz.fullSaves[1]); i++ {
		if live != "" {
			if err := os.RemoveAll(live); err != nil {
				return nil, err
			}
		}
		live = filepath.Join(dir, fmt.Sprintf("full-%d", i))
		d, _, bytes, err := timedSave(live, st.db)
		p.op(err)
		if err != nil {
			return nil, err
		}
		p.saveFullMs, p.bytesFull = append(p.saveFullMs, ms(d)), bytes
	}

	per := len(appends) / incrSaves
	for i := 0; i < incrSaves; i++ {
		sigs, err := embed(st.model, appends[i*per:(i+1)*per])
		if err != nil {
			return nil, err
		}
		if err := st.db.AddAll(sigs); err != nil {
			return nil, err
		}
		st.sigs = append(st.sigs, sigs...)
		d, files, bytes, err := timedSave(live, st.db)
		p.op(err)
		if err != nil {
			return nil, err
		}
		p.saveIncrMs = append(p.saveIncrMs, ms(d))
		p.filesIncr, p.bytesIncr = append(p.filesIncr, float64(files)), append(p.bytesIncr, float64(bytes))
	}

	state, err := dirState(live)
	if err != nil {
		return nil, err
	}
	wantLen := st.db.Len()
	p.diskBytesPerSig = float64(totalBytes(state)) / float64(wantLen)
	ps.answer(st.sigs)
	if err := st.srv.Shutdown(ctx); err != nil { // drains the idle coalescer and closes the DB
		return nil, err
	}

	for i, start := 0, time.Now(); ; i++ {
		last := enough(i+1, time.Since(start), sz.reopens[0], sz.reopens[1])
		runtime.GC()
		t0 := time.Now()
		db, err := fmeter.OpenDB(live, fmeter.WithShards(procs))
		t1 := time.Now()
		if err == nil {
			_, err = db.TopKSparse(ps.sigs[0].W, topkK, core.CosineMetric())
		}
		t2 := time.Now()
		if err == nil {
			err = verifyStore(db, wantLen, ps)
		}
		p.op(err)
		if err != nil {
			if db != nil {
				db.Close()
			}
			if last {
				break
			}
			continue
		}
		p.openMs, p.firstQueryMs = append(p.openMs, ms(t1.Sub(t0))), append(p.firstQueryMs, ms(t2.Sub(t1)))
		p.coldOpenMs = append(p.coldOpenMs, ms(t2.Sub(t0)))
		if keepOpen && last {
			p.reopened = &store{model: st.model, db: db, sigs: st.sigs}
			break
		}
		p.op(db.Close())
		if last {
			break
		}
	}

	if mapped {
		for i := 0; i < mappedReopens; i++ {
			runtime.GC()
			t := time.Now()
			db, err := fmeter.OpenDB(live, fmeter.WithShards(procs), fmeter.WithMapped(true))
			d := time.Since(t)
			if err == nil {
				p.mappedBytes = db.MappedBytes()
				err = verifyStore(db, wantLen, ps)
			}
			p.op(err)
			if db != nil {
				p.op(db.Close())
			}
			if err == nil {
				p.openMappedMs = append(p.openMappedMs, ms(d))
			}
		}
		p.compactedReopenOK = compactedReopenProbe(st.sigs, filepath.Join(dir, "compacted")) == nil
	}
	return p, nil
}

// compactedReopenProbe saves and reopens a small store that holds a
// tier-merged segment: one shard, compaction policy with fan-out 2,
// segments of 64, 600 signatures added one by one. At the commit that
// added the benchmark SaveDB succeeds and OpenDB, resident and mapped,
// rejects the directory ("posting ... names dimension ..."), while
// in-memory answers are right; no shipped command enables the policy.
// The benchmark only reports it (core.persist.compacted_reopen_ok): the
// probe is outside the gated workloads and counts as no failed operation.
func compactedReopenProbe(sigs []core.Signature, dir string) error {
	db, err := fmeter.NewDB(dim, fmeter.WithShards(1), fmeter.WithCompactionPolicy(2), fmeter.WithSegmentSize(64))
	if err != nil {
		return err
	}
	n := min(600, len(sigs))
	for _, s := range sigs[:n] {
		if err := db.Add(s); err != nil {
			db.Close()
			return err
		}
	}
	db.Seal()
	err = fmeter.SaveDB(dir, db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, mapped := range []bool{false, true} {
		re, err := fmeter.OpenDB(dir, fmeter.WithShards(1), fmeter.WithMapped(mapped))
		if err != nil {
			return err
		}
		got := re.Len()
		if err := re.Close(); err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("compacted store reopened with %d of %d signatures", got, n)
		}
	}
	return nil
}
