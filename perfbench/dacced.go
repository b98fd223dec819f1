package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/server"
	"dacce/internal/workload"
)

const (
	tenantName  = "phased"
	daccedConns = 2
	// retireEvery and uploadEvery are connection 0's cadence, in its own
	// decode requests: retire the oldest live epoch, re-upload the
	// snapshot (which registers a fresh tenant, so every epoch is live
	// again). An upload costs about a hundred decode batches of server
	// time, so it stays rare enough that decoding, not uploading,
	// dominates the mix.
	retireEvery = 32
	uploadEvery = 1024
)

// corpus is the dacced workload's input: the snapshot of a
// single-threaded (deterministic) run of the phased program and a set
// of that run's captures spanning its epochs, each with its shadow
// stack as ground truth, pre-encoded into decode batches.
type corpus struct {
	snap      []byte
	marshalNs int64
	epochs    int
	captures  []*core.Capture
	want      []core.Context
	batches   [][]byte
	bounds    [][2]int // capture index range of each batch
}

func buildCorpus(seed uint64, sz sizes) (*corpus, error) {
	w, err := workload.Build(phasedProfile(1, sz.corpusCalls))
	if err != nil {
		return nil, err
	}
	d := core.New(w.P, core.Options{})
	r, err := runRound(w, d, machine.Config{SampleEvery: phasedSampleEvery, Seed: machineSeed(seed, "dacced")}, nil)
	if err != nil {
		return nil, err
	}
	c := &corpus{epochs: int(d.Epoch()) + 1}
	// One capture from every epoch that has one, then an even spread
	// over the rest, in sample order.
	pick := map[int]bool{}
	seen := map[uint32]bool{}
	for i, s := range r.samples {
		if e := s.Capture.(*core.Capture).Epoch; !seen[e] {
			seen[e] = true
			pick[i] = true
		}
	}
	for i := 0; len(pick) < sz.corpusSize && i < sz.corpusSize; i++ {
		pick[i*len(r.samples)/sz.corpusSize] = true
	}
	idx := make([]int, 0, len(pick))
	for i := range pick {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		s := r.samples[i]
		c.captures = append(c.captures, s.Capture.(*core.Capture))
		c.want = append(c.want, core.ShadowContext(r.spawn[s.Thread], s.Shadow))
	}
	for lo := 0; lo < len(c.captures); lo += sz.batch {
		hi := min(lo+sz.batch, len(c.captures))
		b, err := json.Marshal(server.DecodeRequest{Tenant: tenantName, Captures: c.captures[lo:hi]})
		if err != nil {
			return nil, err
		}
		c.batches = append(c.batches, b)
		c.bounds = append(c.bounds, [2]int{lo, hi})
	}
	st := d.ExportState()
	start := time.Now()
	c.snap, err = persist.Marshal(st)
	c.marshalNs = int64(time.Since(start))
	return c, err
}

// digest hashes the corpus: the snapshot's persist hash and every
// pre-encoded batch.
func (c *corpus) digest() string {
	var d digest
	d.b = append(d.b, persist.Hash(c.snap)...)
	for _, b := range c.batches {
		d.b = append(d.b, b...)
	}
	return d.sum()
}

// daccedServer is dacced's handler served on a loopback listener.
type daccedServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func startServer(wrap func(http.Handler) http.Handler) (*daccedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &daccedServer{
		hs:   &http.Server{Handler: wrap(server.New(server.Config{}).Handler())},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until it has.
func (s *daccedServer) close() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is one client connection of the closed loop.
type conn struct {
	id     int
	client *http.Client
	tr     *tracer
}

func newConn(id int, tr *tracer) *conn {
	return &conn{id: id, tr: tr, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one request and reads the whole response; the net.<route>
// span covers exactly the client-side latency it returns.
func (c *conn) post(url, route string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if c.tr != nil {
		id, op := c.tr.begin(laneConn0+c.id, "net."+route, 0, 0, true)
		req.Header.Set(traceHeader, fmt.Sprintf("%d:%d:%d", id, op, c.id))
		defer c.tr.end(laneConn0 + c.id)
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, lat, err
}

// register uploads the corpus snapshot as the tenant.
func (c *conn) register(s *daccedServer, snap []byte) (time.Duration, error) {
	code, body, lat, err := c.post(s.url+"/v1/snapshot?tenant="+tenantName, "snapshot", snap)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("snapshot upload: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	return lat, err
}

// loopStats is one connection's share of a measured phase.
type loopStats struct {
	attempted, failed, correct, rejected int64
	memoHits, memoMisses                 int64
	failures                             []string
	decodeMs, retireMs, uploadMs         []float64
	// verified holds the hash of a response already checked correct,
	// by batch.
	verified map[int][32]byte
	// done logs, per decode batch, when it completed (since the phase
	// started) and how many of its captures decoded correctly.
	done []completion
}

type completion struct {
	at      time.Duration
	correct int64
}

func (l *loopStats) fail(n int64, format string, args ...any) {
	l.failed += n
	if len(l.failures) < 10 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// loop is one connection's closed loop from start for the given
// duration.
func (c *conn) loop(s *daccedServer, cp *corpus, start time.Time, seconds float64) *loopStats {
	ls := &loopStats{verified: map[int][32]byte{}}
	oldest := 0
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		b := (c.id + daccedConns*k) % len(cp.batches)
		lo, hi := cp.bounds[b][0], cp.bounds[b][1]
		n := int64(hi - lo)
		ls.attempted += n
		code, body, lat, err := c.post(s.url+"/v1/decode", "decode", cp.batches[b])
		switch {
		case err != nil:
			ls.fail(n, "decode batch %d: %v", b, err)
		case code != http.StatusOK:
			if code == http.StatusTooManyRequests {
				ls.rejected++
			}
			ls.fail(n, "decode batch %d: HTTP %d", b, code)
		default:
			ls.decodeMs = append(ls.decodeMs, float64(lat)/1e6)
			before := ls.correct
			ls.check(cp, b, body)
			ls.done = append(ls.done, completion{time.Since(start), ls.correct - before})
		}
		if c.id != 0 {
			continue
		}
		if (k+1)%retireEvery == 0 {
			ls.attempted++
			url := fmt.Sprintf("%s/v1/retire?tenant=%s&epoch=%d", s.url, tenantName, oldest)
			code, _, lat, err := c.post(url, "retire", nil)
			if err != nil || code != http.StatusOK {
				ls.fail(1, "retire epoch %d: HTTP %d, %v", oldest, code, err)
			} else {
				ls.retireMs = append(ls.retireMs, float64(lat)/1e6)
			}
			oldest = (oldest + 1) % cp.epochs
		}
		if (k+1)%uploadEvery == 0 {
			c.countMemo(s, ls)
			ls.attempted++
			lat, err := c.register(s, cp.snap)
			if err != nil {
				ls.fail(1, "%v", err)
			} else {
				ls.uploadMs = append(ls.uploadMs, float64(lat)/1e6)
			}
			oldest = 0
		}
	}
	if c.id == 0 {
		c.countMemo(s, ls)
	}
	return ls
}

// countMemo adds the outgoing tenant's memo counters to the phase's,
// in traced phases only (it is one more request on the loop).
func (c *conn) countMemo(s *daccedServer, ls *loopStats) {
	if c.tr == nil {
		return
	}
	ls.attempted++
	t, err := c.tenantStats(s)
	if err != nil {
		ls.fail(1, "%v", err)
		return
	}
	ls.memoHits += t.MemoHits
	ls.memoMisses += t.MemoMisses
}

// check compares every result of a decode batch with its captures'
// shadow stacks. A response byte-identical to one already checked for
// the same batch is known correct without parsing it again, which
// keeps the client's share of the closed loop small.
func (ls *loopStats) check(cp *corpus, b int, body []byte) {
	lo, hi := cp.bounds[b][0], cp.bounds[b][1]
	sum := sha256.Sum256(body)
	if ls.verified[b] == sum {
		ls.correct += int64(hi - lo)
		return
	}
	before := ls.failed
	defer func() {
		if ls.failed == before {
			ls.verified[b] = sum
		}
	}()
	var resp server.DecodeResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != hi-lo {
		ls.fail(int64(hi-lo), "decode batch %d: malformed response (%v)", b, err)
		return
	}
	for i, r := range resp.Results {
		want := cp.want[lo+i]
		ok := r.Error == "" && len(r.Frames) == len(want)
		for j := 0; ok && j < len(want); j++ {
			ok = r.Frames[j].Site == want[j].Site && r.Frames[j].Fn == want[j].Fn
		}
		if ok {
			ls.correct++
		} else {
			ls.fail(1, "decode batch %d capture %d: frames differ from the shadow stack (error %q)", b, i, r.Error)
		}
	}
}

// daccedPhase is the merged result of both connections.
type daccedPhase struct {
	loopStats
	wall  time.Duration
	rates []float64 // correct captures per second, per window
}

// rateWindow is the width of the windows throughput is counted in.
const rateWindow = 250 * time.Millisecond

// capturesPerS is the median window's throughput: a burst of host
// noise slows a few windows, not the median.
func (p *daccedPhase) capturesPerS() float64 { return median(p.rates) }

// runLoops runs both connections' closed loops for seconds. It first
// re-registers the snapshot, untimed, so every phase starts from the
// same cold tenant rather than from the memo the last phase warmed.
func runLoops(s *daccedServer, cp *corpus, seconds float64, tr *tracer) (*daccedPhase, error) {
	c := newConn(0, nil)
	_, err := c.register(s, cp.snap)
	c.close()
	if err != nil {
		return nil, err
	}
	stats := make([]*loopStats, daccedConns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < daccedConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(i, tr)
			defer c.close()
			stats[i] = c.loop(s, cp, start, seconds)
		}(i)
	}
	wg.Wait()
	p := &daccedPhase{wall: time.Since(start)}
	windows := make([]int64, max(1, int(seconds*float64(time.Second)/float64(rateWindow))))
	for _, ls := range stats {
		for _, d := range ls.done {
			if w := int(d.at / rateWindow); w < len(windows) {
				windows[w] += d.correct
			}
		}
	}
	for _, n := range windows {
		p.rates = append(p.rates, float64(n)/rateWindow.Seconds())
	}
	for _, ls := range stats {
		p.loopStats.merge(ls)
	}
	return p, nil
}

func (l *loopStats) merge(o *loopStats) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.correct += o.correct
	l.rejected += o.rejected
	l.memoHits += o.memoHits
	l.memoMisses += o.memoMisses
	l.failures = append(l.failures, o.failures...)
	l.decodeMs = append(l.decodeMs, o.decodeMs...)
	l.retireMs = append(l.retireMs, o.retireMs...)
	l.uploadMs = append(l.uploadMs, o.uploadMs...)
}

func (p *daccedPhase) merge(q *daccedPhase) {
	p.loopStats.merge(&q.loopStats)
	p.wall += q.wall
	p.rates = append(p.rates, q.rates...)
}

func (p *daccedPhase) addTo(res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, f := range p.failures {
		if len(res.Failures) < 20 {
			res.Failures = append(res.Failures, f)
		}
	}
}

func runDacced(cfg runCfg) (*result, error) {
	sz := sizesFor(cfg.smoke)
	res := newResult(cfg)
	var tr *tracer
	wrap := func(h http.Handler) http.Handler { return h }
	if cfg.trace {
		tr = newTracer()
		wrap = func(h http.Handler) http.Handler { return tracedHandler{next: h, tr: tr} }
	}
	var (
		cp  *corpus
		srv *daccedServer
	)
	release := func() {
		if srv != nil {
			_ = srv.close() // a set-up being replaced; its errors do not matter
		}
		cp, srv = nil, nil
	}
	setups, err := repeatSetup(release, func() (err error) {
		if cp, err = buildCorpus(cfg.seed, sz); err != nil {
			return err
		}
		if srv, err = startServer(wrap); err != nil {
			return err
		}
		c := newConn(0, nil)
		defer c.close()
		_, err = c.register(srv, cp.snap)
		return err
	})
	if err != nil {
		release()
		return nil, err
	}
	defer release()
	res.e2e("setup_s", median(setups), setups)
	res.e2e("snapshot_mb", float64(len(cp.snap))/1e6, nil)

	if !cfg.trace {
		p, err := runLoops(srv, cp, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		p.addTo(res)
		res.e2e("ops_per_s", p.capturesPerS(), p.rates)
		res.e2e("captures_per_s", p.capturesPerS(), p.rates)
		res.e2e("op_ms.p50", median(p.decodeMs), p.decodeMs)
		res.e2e("op_ms.p90", percentile(p.decodeMs, 0.9), nil)
		res.e2e("decode_ms.p50", median(p.decodeMs), p.decodeMs)
		res.e2e("decode_ms.p99", percentile(p.decodeMs, 0.99), nil)
		// Retire every epoch first: what stays resident is what
		// retirement cannot reclaim, independent of where in the upload
		// cadence the phase happened to stop.
		res.Attempted++
		if err := retireAll(srv, cp); err != nil {
			res.fail("%v", err)
		}
		res.e2e("heap_retained_mb", liveHeapMB(), nil)
		res.note("%d decode batches, %d retirements, %d snapshot uploads over %d epochs",
			len(p.decodeMs), len(p.retireMs), len(p.uploadMs), cp.epochs)
		return res, nil
	}

	// Untraced and traced quarters alternate, so a drift in host speed
	// over the run does not read as tracing overhead.
	plain, traced := &daccedPhase{}, &daccedPhase{}
	for i := 0; i < 4; i++ {
		into, t := plain, (*tracer)(nil)
		if i%2 == 1 {
			into, t = traced, tr
		}
		p, err := runLoops(srv, cp, cfg.seconds/4, t)
		if err != nil {
			return nil, err
		}
		into.merge(p)
	}
	plain.addTo(res)
	traced.addTo(res)
	ts := tr.stats()
	res.layer("server.handler_ms.p50", ts.quantileNs("server.decode", 0.5)/1e6)
	res.layer("server.handler_ms.p99", ts.quantileNs("server.decode", 0.99)/1e6)
	if a := ts.byName["net.decode"]; a != nil && a.n > 0 {
		res.layer("server.transport_ms", float64(a.self)/float64(a.n)/1e6)
	}
	res.layer("server.rejected", float64(traced.rejected))
	res.layer("server.retire_ms", mean(traced.retireMs))
	res.layer("server.register_ms", mean(traced.uploadMs))
	if err := layerTenant(res, srv, traced); err != nil {
		return nil, err
	}
	res.layer("persist.marshal_ms", float64(cp.marshalNs)/1e6)
	start := time.Now()
	st, err := persist.Unmarshal(cp.snap)
	res.layer("persist.unmarshal_ms", float64(time.Since(start))/1e6)
	if err != nil {
		return nil, err
	}
	dec, err := st.NewDecoder()
	if err != nil {
		return nil, err
	}
	dag := ccdag.New()
	start = time.Now()
	for _, c := range cp.captures {
		if _, err := dec.DecodeNode(dag, c); err != nil {
			res.fail("offline decode of the corpus: %v", err)
		}
	}
	res.layer("core.decoder_node_ns", float64(time.Since(start))/float64(len(cp.captures)))
	res.layer("ledger.residual", ts.residual(int64(traced.wall), laneConn0, laneConn0+1))
	res.layer("trace.overhead", traceOverhead(plain.capturesPerS(), traced.capturesPerS()))
	layerSelf(res, ts)
	res.note("traced phase: %d decode batches, %d retirements, %d uploads", len(traced.decodeMs), len(traced.retireMs), len(traced.uploadMs))
	res.note("captures/s untraced %.0f, traced %.0f; decode ms p50 untraced %.3f, traced %.3f",
		plain.capturesPerS(), traced.capturesPerS(), median(plain.decodeMs), median(traced.decodeMs))
	return res, tr.write(spanPath(cfg))
}

// retireAll retires every epoch of the tenant.
func retireAll(s *daccedServer, cp *corpus) error {
	c := newConn(0, nil)
	defer c.close()
	url := fmt.Sprintf("%s/v1/retire?tenant=%s&epoch=%d", s.url, tenantName, cp.epochs-1)
	code, _, _, err := c.post(url, "retire", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("retiring every epoch: HTTP %d", code)
	}
	return err
}

// tenantStats reads the tenant's entry from /v1/stats. A re-upload
// replaces the tenant, so its counters cover the time since the last
// upload.
func (c *conn) tenantStats(s *daccedServer) (server.TenantStats, error) {
	resp, err := c.client.Get(s.url + "/v1/stats")
	if err != nil {
		return server.TenantStats{}, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.TenantStats{}, fmt.Errorf("reading /v1/stats: %w", err)
	}
	for _, t := range st.Tenants {
		if t.Name == tenantName {
			return t, nil
		}
	}
	return server.TenantStats{}, fmt.Errorf("/v1/stats lists no tenant %q", tenantName)
}

// layerTenant records the memo hit rate over the whole phase and the
// current tenant's DAG health.
func layerTenant(res *result, s *daccedServer, p *daccedPhase) error {
	c := newConn(0, nil)
	defer c.close()
	t, err := c.tenantStats(s)
	if err != nil {
		return err
	}
	if p.memoHits+p.memoMisses > 0 {
		res.layer("server.memo_hit_rate", float64(p.memoHits)/float64(p.memoHits+p.memoMisses))
	}
	layerDAG(res, ccdag.Stats{Nodes: t.DAGNodes, BytesEstimate: t.DAGBytesEst, Collected: t.DAGCollected})
	res.layer("ccdag.hit_rate", t.DAGHitRate)
	return nil
}
