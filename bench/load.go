//fmeter:nondeterministic-ok benchmark harness: the load generators time requests on the wall clock

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// reqHeader carries the request index in the traced pass, so the
// server-side span joins the client-side one.
const reqHeader = "X-Fmeter-Req"

// probeSet is the query side of a workload: the probe signatures, their
// pre-encoded request bodies, and the oracle's answers for the checked
// ones.
type probeSet struct {
	sigs   []core.Signature
	bodies [numProbes][numKinds][]byte
	cycle  []request
	// Oracle answers for probes [0, checkedProbes).
	wantTopK  [checkedProbes][numKinds][]oracleHit
	wantLabel [checkedProbes][numKinds]string
}

func newProbeSet(g *generator, model *core.Model, classes int) (*probeSet, error) {
	docs := make([]*core.Document, numProbes)
	for j := range docs {
		docs[j] = g.probe(j, classes)
	}
	sigs, err := embed(model, docs)
	if err != nil {
		return nil, err
	}
	ps := &probeSet{sigs: sigs, cycle: requestCycle()}
	for j, s := range sigs {
		for k := reqKind(0); k < numKinds; k++ {
			ps.bodies[j][k] = encodeQuery(s, k)
		}
	}
	return ps, nil
}

// answer fills in the oracle's answers over stored.
func (ps *probeSet) answer(stored []core.Signature) {
	for j := 0; j < checkedProbes; j++ {
		cosine, euclid := oracleScores(stored, ps.sigs[j])
		ps.wantTopK[j][topkCosine] = oracleRank(stored, cosine, topkK, true)
		ps.wantTopK[j][topkEuclidean] = oracleRank(stored, euclid, topkK, false)
		ps.wantLabel[j][classifyCosine] = oracleVote(oracleRank(stored, cosine, classifyK, true))
		ps.wantLabel[j][classifyEuclidean] = oracleVote(oracleRank(stored, euclid, classifyK, false))
	}
}

type topkReply struct {
	Results [][]struct {
		DocID string  `json:"doc_id"`
		Score float64 `json:"score"`
	} `json:"results"`
}

type classifyReply struct {
	Labels []string `json:"labels"`
}

// check compares one served body against the oracle. present counts the
// oracle's top-k doc ids found in it, for recall_at_k.
func (ps *probeSet) check(rq request, body []byte) (present int, err error) {
	if rq.kind.isTopK() {
		hits := ps.wantTopK[rq.probe][rq.kind]
		var rep topkReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return 0, err
		}
		if len(rep.Results) != 1 {
			return 0, fmt.Errorf("%d result lists for one query", len(rep.Results))
		}
		ids, scores := make([]string, len(rep.Results[0])), make([]float64, len(rep.Results[0]))
		for i, h := range rep.Results[0] {
			ids[i], scores[i] = h.DocID, h.Score
		}
		present, ok := matchTopK(hits, ids, scores)
		if !ok {
			return present, fmt.Errorf("probe %d %s top-%d: served %v, oracle %v", rq.probe, rq.kind.metricName(), rq.kind.k(), ids, hits)
		}
		return present, nil
	}
	var rep classifyReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, err
	}
	if want := ps.wantLabel[rq.probe][rq.kind]; len(rep.Labels) != 1 || rep.Labels[0] != want {
		return 0, fmt.Errorf("probe %d %s classify: served %v, oracle %q", rq.probe, rq.kind.metricName(), rep.Labels, want)
	}
	return 0, nil
}

// conn is one client connection: its own transport capped at a single
// TCP connection, so "n connections" means n sockets.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
	// verified holds, per checked probe and kind, a response body that
	// already matched the oracle; an identical body needs no second
	// decode, which keeps checking off the client's critical path.
	verified [checkedProbes][numKinds][]byte
}

func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and reads the whole reply into c.buf.
func (c *conn) post(url string, body []byte, reqIndex int) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqIndex >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(reqIndex))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// loadStats is what one load phase observed.
type loadStats struct {
	latMs     []float64 // measured round trips, connection by connection
	attempted int
	failed    int
	present   int // oracle doc ids found in served top-k answers
	want      int // oracle doc ids looked for
	respBytes int64
	elapsed   time.Duration
	problems  []string
}

func (ls *loadStats) fail(err error) {
	ls.failed++
	if len(ls.problems) < 5 {
		ls.problems = append(ls.problems, err.Error())
	}
}

func (ls *loadStats) merge(o *loadStats) {
	ls.latMs = append(ls.latMs, o.latMs...)
	ls.attempted += o.attempted
	ls.failed += o.failed
	ls.present += o.present
	ls.want += o.want
	ls.respBytes += o.respBytes
	ls.problems = append(ls.problems, o.problems...)
}

// query sends request number n of the cycle and checks the answer.
// traced >= 0 puts the request index on the wire.
func (c *conn) query(st *store, ps *probeSet, n int, traced int, ls *loadStats) time.Duration {
	rq := ps.cycle[n%len(ps.cycle)]
	body := ps.bodies[rq.probe][rq.kind]
	ls.attempted++
	t := time.Now()
	status, err := c.post(st.url+rq.kind.path(), body, traced)
	d := time.Since(t)
	switch {
	case err != nil:
		ls.fail(err)
	case status != http.StatusOK:
		ls.fail(fmt.Errorf("%s: status %d: %s", rq.kind.path(), status, c.buf.Bytes()))
	case rq.probe < checkedProbes:
		got := c.buf.Bytes()
		want := len(ps.wantTopK[rq.probe][rq.kind]) // 0 for classify
		ls.want += want
		if bytes.Equal(got, c.verified[rq.probe][rq.kind]) {
			ls.present += want
			break
		}
		present, err := ps.check(rq, got)
		ls.present += present
		if err != nil {
			ls.fail(err)
		} else {
			c.verified[rq.probe][rq.kind] = append([]byte(nil), got...)
		}
	}
	ls.respBytes += int64(c.buf.Len())
	return d
}

// closedLoop drives conns connections from start for warm+measure: each
// sends its next request when the previous reply is complete. Requests
// that start during the warm-up are sent and checked but not timed.
func closedLoop(st *store, ps *probeSet, conns int, start time.Time, warm, measure time.Duration) loadStats {
	var next atomic.Int64
	parts := make([]loadStats, conns)
	measureFrom, stopAt := start.Add(warm), start.Add(warm+measure)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(ls *loadStats) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			for {
				t := time.Now()
				if !t.Before(stopAt) {
					return
				}
				d := c.query(st, ps, int(next.Add(1)-1), -1, ls)
				if !t.Before(measureFrom) {
					ls.latMs = append(ls.latMs, ms(d))
				}
			}
		}(&parts[i])
	}
	wg.Wait()
	total := loadStats{elapsed: time.Since(measureFrom)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// ingestStats is what the paced ingest observed.
type ingestStats struct {
	latMs, lateMs []float64
	attempted     int
	failed        int
	problems      []string
}

// pacedIngest posts bodies on one connection on a fixed schedule (open
// loop): body i is due at start+i/hz, is sent no earlier, and is timed
// from its due time, so a stall charges the bodies queued behind it.
func pacedIngest(st *store, bodies [][]byte, hz float64, start time.Time) ingestStats {
	var is ingestStats
	c := newConn()
	defer c.close()
	for i, body := range bodies {
		due := start.Add(time.Duration(float64(i) / hz * float64(time.Second)))
		time.Sleep(time.Until(due))
		sent := time.Now()
		is.attempted++
		status, err := c.post(st.url+"/v1/ingest", body, -1)
		switch {
		case err != nil:
			err = fmt.Errorf("ingest body %d: %w", i, err)
		case status != http.StatusOK:
			err = fmt.Errorf("ingest body %d: status %d: %s", i, status, c.buf.Bytes())
		}
		if err != nil {
			is.failed++
			if len(is.problems) < 5 {
				is.problems = append(is.problems, err.Error())
			}
			continue
		}
		is.latMs = append(is.latMs, ms(time.Since(due)))
		is.lateMs = append(is.lateMs, ms(sent.Sub(due)))
	}
	return is
}
