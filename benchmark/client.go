package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request of a window.
type sample struct {
	Req       int     `json:"req"`      // index into the workload's requests
	StartS    float64 `json:"start_s"`  // offset from the window start
	FirstMS   float64 `json:"first_ms"` // sent → first body byte (first row)
	TotalMS   float64 `json:"total_ms"` // sent → last body byte (cursor exhausted)
	Bytes     int64   `json:"bytes"`
	Rows      int64   `json:"rows"` // library reads only; HTTP rows come from the oracle
	OK        bool    `json:"ok"`
	InWindow  bool    `json:"in_window"` // completed before the window closed
	FailCause string  `json:"fail,omitempty"`
}

var acceptHeader = map[string]string{
	fmtJSON: "application/sparql-results+json",
	fmtTSV:  "text/tab-separated-values",
}

// httpClient issues a workload's requests to one sparqld.
type httpClient struct {
	base string
	hc   *http.Client
	urls []string
	reqs []request
}

func newHTTPClient(addr string, reqs []request, conns int) *httpClient {
	c := &httpClient{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		reqs: reqs,
	}
	for _, r := range reqs {
		c.urls = append(c.urls, c.base+"/sparql?query="+url.QueryEscape(r.Query))
	}
	return c
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends request i and hands the body to consume, which reports the
// bytes it read. It returns the send → first-body-byte and send →
// last-body-byte times.
func (c *httpClient) do(i int, consume func(io.Reader) (int64, error)) (first, total time.Duration, n int64, err error) {
	hr, err := http.NewRequest(http.MethodGet, c.urls[i], nil)
	if err != nil {
		return 0, 0, 0, err
	}
	hr.Header.Set("Accept", acceptHeader[c.reqs[i].Format])
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	fb := &firstByteReader{r: resp.Body, start: start}
	n, err = consume(fb)
	total = time.Since(start)
	if fb.first == 0 {
		fb.first = total
	}
	return fb.first, total, n, err
}

// firstByteReader notes when the first body byte arrived.
type firstByteReader struct {
	r     io.Reader
	start time.Time
	first time.Duration
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first == 0 {
		f.first = time.Since(f.start)
	}
	return n, err
}

func discard(r io.Reader) (int64, error) { return io.Copy(io.Discard, r) }

// verify fetches request i once, parses the whole body and compares
// row count and digest with the oracle's answer. On success it records
// the body length the timed window will check.
func (c *httpClient) verify(i int) error {
	r := &c.reqs[i]
	var got answer
	_, _, n, err := c.do(i, func(body io.Reader) (int64, error) {
		cr := &countingReader{r: body}
		var perr error
		if r.Format == fmtTSV {
			got, perr = parseTSV(cr, r.Vars)
		} else {
			got, perr = parseJSON(cr, r.Vars)
		}
		return cr.n, perr
	})
	if err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	if got != r.Want {
		return fmt.Errorf("%s: wrong answer: got %d rows digest %s, want %d rows digest %s",
			r.ID, got.Rows, got.Digest, r.Want.Rows, r.Want.Digest)
	}
	r.BodyLen = n
	return nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// parseJSON digests an application/sparql-results+json body with the
// columns in the oracle's order. Terms are rendered the way the
// dictionary stores them: IRIs bare, literals quoted, blank nodes _:x.
func parseJSON(r io.Reader, vars []string) (answer, error) {
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return answer{}, fmt.Errorf("parsing JSON results: %w", err)
	}
	if err := sameVars(doc.Head.Vars, vars); err != nil {
		return answer{}, err
	}
	var d digester
	terms := make([]string, len(vars))
	for _, b := range doc.Results.Bindings {
		if len(b) != len(vars) {
			return answer{}, fmt.Errorf("binding with %d of %d variables", len(b), len(vars))
		}
		for i, v := range vars {
			t, ok := b[v]
			if !ok {
				return answer{}, fmt.Errorf("binding without ?%s", v)
			}
			switch t.Type {
			case "uri":
				terms[i] = t.Value
			case "literal":
				terms[i] = `"` + t.Value + `"`
			case "bnode":
				terms[i] = "_:" + t.Value
			default:
				return answer{}, fmt.Errorf("unknown term type %q", t.Type)
			}
		}
		d.addRow(terms)
	}
	return d.answer(), nil
}

// parseTSV digests a text/tab-separated-values body the same way.
func parseTSV(r io.Reader, vars []string) (answer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return answer{}, fmt.Errorf("TSV results without a header line")
	}
	head := strings.Split(sc.Text(), "\t")
	for i := range head {
		head[i] = strings.TrimPrefix(head[i], "?")
	}
	if err := sameVars(head, vars); err != nil {
		return answer{}, err
	}
	col := make([]int, len(vars)) // oracle column → body column
	for i, v := range vars {
		for j, h := range head {
			if h == v {
				col[i] = j
			}
		}
	}
	var d digester
	terms := make([]string, len(vars))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != len(vars) {
			return answer{}, fmt.Errorf("TSV row with %d of %d columns", len(f), len(vars))
		}
		for i := range vars {
			t := f[col[i]]
			if strings.HasPrefix(t, "<") && strings.HasSuffix(t, ">") {
				t = t[1 : len(t)-1]
			}
			terms[i] = t
		}
		d.addRow(terms)
	}
	return d.answer(), sc.Err()
}

func sameVars(got, want []string) error {
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		return fmt.Errorf("result variables %v, want %v", got, want)
	}
	return nil
}

// closedLoop runs conns clients against the schedule for the given
// time: each sends its next request only after its previous one
// completed, as SPARQL-protocol clients do. Requests are drawn from one
// shared position in the schedule, so the mix does not depend on which
// client is faster. A request that started inside the window is waited
// for and sampled; it counts as completed in the window only if it
// ended before the window closed. tick runs when the window opens and
// at the end of each of its whole seconds, while requests are in
// flight.
func (c *httpClient) closedLoop(conns int, sched []int, window time.Duration, tick func()) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	end := start.Add(window)
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for i := 0; tick != nil && i <= int(window/time.Second); i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			tick()
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				i := sched[int(next.Add(1)-1)%len(sched)]
				first, total, n, err := c.do(i, discard)
				s := sample{Req: i, StartS: t0.Sub(start).Seconds(), Bytes: n,
					FirstMS: float64(first) / 1e6, TotalMS: float64(total) / 1e6,
					InWindow: !t0.Add(total).After(end)}
				switch {
				case err != nil:
					s.FailCause = err.Error()
				case n != c.reqs[i].BodyLen:
					s.FailCause = fmt.Sprintf("body of %d bytes, verified body had %d", n, c.reqs[i].BodyLen)
				default:
					s.OK = true
				}
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	<-ticked
	return out
}
