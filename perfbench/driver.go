package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// route classifies requests for latency reporting.
type route uint8

const (
	routeExchange route = iota // POST /exchange/{name}
	routeRead                  // GET /doc/{name}
	routeWrite                 // PUT or DELETE /doc/{name}
	numRoutes
)

var routeNames = [numRoutes]string{"exchange", "read", "write"}

// opKind is the request an op issues.
type opKind uint8

const (
	opExchange opKind = iota
	opGet
	opPut
	opDelete
)

func (k opKind) route() route {
	switch k {
	case opExchange:
		return routeExchange
	case opGet:
		return routeRead
	}
	return routeWrite
}

// op is one generated request. Ops are drawn from a connection's seeded
// generator before the request's due time, so the request sequence depends
// only on the seed, never on timing.
type op struct {
	kind opKind
	doc  int // population index (exchange) or key index (doc-churn)
	recv int // receiver index (exchange)
	body int // body index for PUT; expected body index for GET
}

// sample is one completed request as the client saw it.
type sample struct {
	route route
	lat   time.Duration // completion minus due time (open loop) or send time (closed loop)
	ttfb  time.Duration // response headers minus the same origin
	late  time.Duration // send minus max(due, previous completion): generator lateness
	bytes int           // response body bytes
	at    time.Duration // completion time since the phase started
}

// conn is one client connection with its own transport, generator state and
// response buffer.
type conn struct {
	client *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
	state  any // workload-specific per-connection state (doc-churn key ownership)
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// workloadRunner is what the driver needs from a workload: an op generator
// and a request executor that checks the response.
type workloadRunner interface {
	// next draws the connection's next op.
	next(rng *rand.Rand, c *conn) op
	// do issues o against base and reports the response headers time, the
	// body size and whether the response was correct.
	do(c *conn, base string, o op) (headers time.Time, n int, err error)
}

// phaseResult aggregates one load phase.
type phaseResult struct {
	samples   []sample
	attempted int
	failed    int
	errs      []string // first few failure messages
	elapsed   time.Duration
}

func (r *phaseResult) merge(o *phaseResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	if len(r.errs) < 5 {
		r.errs = append(r.errs, o.errs...)
	}
}

// phase describes one timed load phase.
type phase struct {
	conns    int
	openRate float64 // total arrivals per second; 0 = closed loop
	dur      time.Duration
	seed     int64
}

// runPhase drives base with ph.conns connections. In the open loop each
// connection follows its own Poisson schedule at openRate/conns: a request is
// sent at its due time, or as soon as the connection's previous request
// completes if that is later, and its latency counts from the due time.
// Nothing is shed and the schedule never waits. In the closed loop each
// connection sends its next request as soon as the previous completes.
func runPhase(w workloadRunner, base string, ph phase, conns []*conn) *phaseResult {
	results := make([]*phaseResult, ph.conns)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(ph.dur)
	for i := 0; i < ph.conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(ph.seed*1_000_003 + int64(i)*7919))
			results[i] = drive(w, base, ph, conns[i], rng, start, end)
		}()
	}
	wg.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func drive(w workloadRunner, base string, ph phase, c *conn, rng *rand.Rand, start, end time.Time) *phaseResult {
	res := &phaseResult{}
	open := ph.openRate > 0
	perConn := ph.openRate / float64(ph.conns)
	due, prevDone := start, start
	for {
		if open {
			due = due.Add(time.Duration(rng.ExpFloat64() / perConn * float64(time.Second)))
			if !due.Before(end) {
				break
			}
		} else if !time.Now().Before(end) {
			break
		}
		o := w.next(rng, c)
		if open {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		send := time.Now()
		origin := send
		if open {
			origin = due
		}
		hdr, n, err := w.do(c, base, o)
		done := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, err.Error())
			}
			prevDone = done
			continue
		}
		late := send.Sub(prevDone)
		if open {
			late = send.Sub(maxTime(due, prevDone))
		}
		res.samples = append(res.samples, sample{
			route: o.kind.route(),
			lat:   done.Sub(origin),
			ttfb:  hdr.Sub(origin),
			late:  late,
			bytes: n,
			at:    done.Sub(start),
		})
		prevDone = done
	}
	return res
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// request issues one HTTP request on c and reads the whole body into c.buf.
func (c *conn) request(method, url string, body []byte) (status int, headers time.Time, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, time.Time{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	headers = time.Now()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, headers, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, headers, nil
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// latencies extracts one timing of the samples, in milliseconds, sorted.
func latencies(ss []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(pick(s)) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowRates splits the samples, in completion order, into n groups of
// equal size and returns each group's completions per second, timed from the
// previous group's last completion (the phase start for the first).
func windowRates(ss []sample, n int) []float64 {
	at := make([]time.Duration, len(ss))
	for i, s := range ss {
		at[i] = s.at
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]float64, 0, n)
	var from time.Duration
	for i := 0; i < n; i++ {
		lo, hi := i*len(at)/n, (i+1)*len(at)/n
		if hi == lo {
			continue
		}
		out = append(out, float64(hi-lo)/(at[hi-1]-from).Seconds())
		from = at[hi-1]
	}
	return out
}
