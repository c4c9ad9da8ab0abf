package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlopt"
)

// testSystem opens a small social graph over four nodes.
func testSystem(t *testing.T, opts ...sparqlopt.Option) *sparqlopt.System {
	t.Helper()
	ds := sparqlopt.NewDataset()
	ds.Add("alice", "worksFor", "acme")
	ds.Add("bob", "worksFor", "acme")
	ds.Add("carol", "worksFor", "globex")
	ds.Add("acme", "inCity", "berlin")
	ds.Add("globex", "inCity", "tokyo")
	ds.Add("alice", "knows", "bob")
	ds.Add("bob", "knows", "carol")
	sys, err := sparqlopt.Open(ds, append([]sparqlopt.Option{sparqlopt.WithNodes(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func newServer(t *testing.T, sys *sparqlopt.System, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(sys, cfg))
	t.Cleanup(srv.Close)
	return srv
}

// sparqlJSON is the wire shape of application/sparql-results+json.
type sparqlJSON struct {
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

func decodeJSON(t *testing.T, body []byte) sparqlJSON {
	t.Helper()
	var out sparqlJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response is not valid SPARQL JSON: %v\n%s", err, body)
	}
	return out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

const orgQuery = `SELECT ?p ?o WHERE { ?p <worksFor> ?o . }`

// TestProtocolBindings: the three protocol request forms — GET, POST
// urlencoded, POST direct — must be equivalent.
func TestProtocolBindings(t *testing.T) {
	sys := testSystem(t)
	srv := newServer(t, sys, Config{})

	resp, viaGet := get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %d %s", resp.StatusCode, viaGet)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ctJSON {
		t.Fatalf("GET content type %q, want %q", ct, ctJSON)
	}

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {orgQuery}})
	if err != nil {
		t.Fatal(err)
	}
	viaForm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST form: %d %s", resp.StatusCode, viaForm)
	}

	resp, err = http.Post(srv.URL+"/sparql", ctSPARQLQuery, strings.NewReader(orgQuery))
	if err != nil {
		t.Fatal(err)
	}
	viaDirect, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST direct: %d %s", resp.StatusCode, viaDirect)
	}

	if string(viaGet) != string(viaForm) || string(viaGet) != string(viaDirect) {
		t.Fatalf("protocol bindings disagree:\nGET:    %s\nform:   %s\ndirect: %s", viaGet, viaForm, viaDirect)
	}
	out := decodeJSON(t, viaGet)
	if len(out.Head.Vars) != 2 || out.Head.Vars[0] != "p" || out.Head.Vars[1] != "o" {
		t.Fatalf("vars = %v", out.Head.Vars)
	}
	if len(out.Results.Bindings) != 3 {
		t.Fatalf("got %d bindings, want 3", len(out.Results.Bindings))
	}
	for _, b := range out.Results.Bindings {
		if b["p"].Type != "uri" {
			t.Fatalf("binding type %q, want uri", b["p"].Type)
		}
	}
}

// TestContentNegotiation: TSV on request, JSON for */*, 406 otherwise.
func TestContentNegotiation(t *testing.T) {
	sys := testSystem(t)
	srv := newServer(t, sys, Config{})
	reqURL := srv.URL + "/sparql?query=" + url.QueryEscape(orgQuery)

	req, _ := http.NewRequest(http.MethodGet, reqURL, nil)
	req.Header.Set("Accept", ctTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ctTSV {
		t.Fatalf("TSV: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("TSV lines = %d:\n%s", len(lines), body)
	}
	if lines[0] != "?p\t?o" {
		t.Fatalf("TSV header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "<") || !strings.Contains(line, ">\t<") {
			t.Fatalf("TSV row %q: IRIs must be angle-bracketed", line)
		}
	}

	req, _ = http.NewRequest(http.MethodGet, reqURL, nil)
	req.Header.Set("Accept", "*/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Type") != ctJSON {
		t.Fatalf("*/* negotiated %q, want JSON", resp.Header.Get("Content-Type"))
	}

	req, _ = http.NewRequest(http.MethodGet, reqURL, nil)
	req.Header.Set("Accept", "application/rdf+xml")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("unsupported Accept: %d, want 406", resp.StatusCode)
	}
}

// TestProtocolErrors: malformed queries carry the parse offset in a
// 400; bad methods, media types and parameters get their own statuses.
func TestProtocolErrors(t *testing.T) {
	sys := testSystem(t)
	srv := newServer(t, sys, Config{})

	resp, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(`SELECT ?x WHERE { ?x <p> }`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "offset") {
		t.Fatalf("400 body must carry the parse offset: %s", body)
	}

	resp, _ = get(t, srv.URL+"/sparql")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/sparql", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed || r2.Header.Get("Allow") == "" {
		t.Fatalf("PUT: %d Allow=%q, want 405 with Allow", r2.StatusCode, r2.Header.Get("Allow"))
	}

	r3, err := http.Post(srv.URL+"/sparql", "text/turtle", strings.NewReader(orgQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("turtle POST: %d, want 415", r3.StatusCode)
	}

	// A timeout that does not convert to a positive time.Duration — NaN,
	// an infinity, one past the Duration range, one below a nanosecond —
	// would otherwise run with no deadline at all.
	for _, bad := range []string{"limit=0", "limit=abc", "timeout=-1", "algorithm=quantum",
		"timeout=NaN", "timeout=Inf", "timeout=1e300", "timeout=1e-10"} {
		resp, _ := get(t, srv.URL+"/sparql?"+bad+"&query="+url.QueryEscape(orgQuery))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}

	// Well-formed queries the optimizer cannot plan are the client's
	// fault too: a disconnected BGP and one over 64 patterns.
	var chain strings.Builder
	chain.WriteString("SELECT * WHERE {")
	for i := 0; i < 65; i++ {
		fmt.Fprintf(&chain, " ?v%d <worksFor> ?v%d .", i, i+1)
	}
	chain.WriteString(" }")
	for name, q := range map[string]string{
		"disconnected": `SELECT * WHERE { ?a <worksFor> ?b . ?c <inCity> ?d . }`,
		"65 patterns":  chain.String(),
	} {
		r, err := http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unsupported query") {
			t.Fatalf("%s: %d %s, want 400 unsupported query", name, r.StatusCode, body)
		}
	}
}

// FuzzDecodeRequest drives the request decoder with arbitrary methods,
// media types, Accept headers, query strings and bodies under five
// server configurations. It must never panic; a rejection is one of the
// protocol's statuses; an accepted request runs under a deadline exactly
// when a timeout was sent (and then it was a positive duration) or the
// server has a default or a cap, and under a row limit exactly when one
// was sent or the server has a default or a cap.
func FuzzDecodeRequest(f *testing.F) {
	q := url.QueryEscape(orgQuery)
	for _, seed := range []struct{ method, ct, accept, rawQuery, body string }{
		{http.MethodGet, "", "", "query=" + q, ""},
		{http.MethodGet, "", ctTSV, "query=" + q + "&limit=2&timeout=2", ""},
		{http.MethodGet, "", "*/*", "query=" + q + "&algorithm=greedy", ""},
		{http.MethodGet, "", "application/rdf+xml", "query=" + q, ""},
		{http.MethodGet, "", "", "", ""},
		{http.MethodPost, ctForm, "", "", "query=" + q + "&timeout=0.5"},
		{http.MethodPost, ctSPARQLQuery + "; charset=utf-8", "", "limit=7", orgQuery},
		{http.MethodPost, "text/turtle", "", "", orgQuery},
		{http.MethodPut, "", "", "query=" + q, ""},
		{http.MethodGet, "", "", "query=" + q + "&limit=0", ""},
		{http.MethodGet, "", "", "query=" + q + "&limit=abc", ""},
		{http.MethodGet, "", "", "query=" + q + "&timeout=-1", ""},
		{http.MethodGet, "", "", "query=" + q + "&timeout=NaN", ""},
		{http.MethodGet, "", "", "query=" + q + "&timeout=Inf", ""},
		{http.MethodGet, "", "", "query=" + q + "&timeout=1e300", ""},
		{http.MethodGet, "", "", "query=" + q + "&timeout=1e-10", ""},
		{http.MethodGet, "", "", "query=" + q + "&algorithm=quantum", ""},
	} {
		for cfg := uint8(0); cfg < 5; cfg++ {
			f.Add(seed.method, seed.ct, seed.accept, seed.rawQuery, []byte(seed.body), cfg)
		}
	}
	f.Fuzz(func(t *testing.T, method, ct, accept, rawQuery string, body []byte, cfgSel uint8) {
		cfg := []Config{{}, {DefaultTimeout: 5 * time.Second}, {MaxTimeout: 2 * time.Second},
			{DefaultLimit: 10}, {MaxLimit: 5}}[cfgSel%5]
		r, err := http.NewRequest(method, "http://localhost/sparql?"+rawQuery, strings.NewReader(string(body)))
		if err != nil {
			t.Skip("not a request the server can receive")
		}
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		req, ok := (&Server{cfg: cfg}).decodeRequest(w, r)
		if !ok {
			switch w.Code {
			case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusNotAcceptable, http.StatusUnsupportedMediaType:
			default:
				t.Fatalf("rejected with %d %q", w.Code, w.Body)
			}
			return
		}
		if w.Code != http.StatusOK || w.Body.Len() > 0 {
			t.Fatalf("accepted, but wrote %d %q", w.Code, w.Body)
		}
		// The parameters the decoder read: the parsed form for a form
		// post, the URL's query string otherwise.
		params := r.URL.Query()
		if r.Form != nil {
			params = r.Form
		}
		timeout, limit := first(params, "timeout"), first(params, "limit")
		if timeout != "" {
			if secs, err := strconv.ParseFloat(timeout, 64); err != nil || math.IsInf(secs, 0) || !(secs*float64(time.Second) >= 1) {
				t.Fatalf("accepted timeout %q", timeout)
			}
		}
		if want := timeout != "" || cfg.DefaultTimeout > 0 || cfg.MaxTimeout > 0; (req.timeout > 0) != want {
			t.Fatalf("timeout %q under %+v: deadline %v, want one: %v", timeout, cfg, req.timeout, want)
		}
		if cfg.MaxTimeout > 0 && req.timeout > cfg.MaxTimeout {
			t.Fatalf("deadline %v past the cap %v", req.timeout, cfg.MaxTimeout)
		}
		if want := limit != "" || cfg.DefaultLimit > 0 || cfg.MaxLimit > 0; (req.limit > 0) != want {
			t.Fatalf("limit %q under %+v: limit %d, want one: %v", limit, cfg, req.limit, want)
		}
		if strings.TrimSpace(req.query) == "" || req.enc == nil {
			t.Fatalf("accepted %+v", req)
		}
	})
}

// TestRequestParameters: limit and algorithm shape the execution.
func TestRequestParameters(t *testing.T) {
	sys := testSystem(t)
	srv := newServer(t, sys, Config{})

	resp, body := get(t, srv.URL+"/sparql?limit=2&query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit=2: %d %s", resp.StatusCode, body)
	}
	if out := decodeJSON(t, body); len(out.Results.Bindings) != 2 {
		t.Fatalf("limit=2 returned %d bindings", len(out.Results.Bindings))
	}

	for _, algo := range []string{"td-cmd", "greedy", "td-auto"} {
		resp, body := get(t, srv.URL+"/sparql?algorithm="+algo+"&query="+url.QueryEscape(orgQuery))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("algorithm=%s: %d %s", algo, resp.StatusCode, body)
		}
		if out := decodeJSON(t, body); len(out.Results.Bindings) != 3 {
			t.Fatalf("algorithm=%s returned %d bindings", algo, len(out.Results.Bindings))
		}
	}
}

// TestServerLimitCaps: MaxLimit clamps both explicit and absent client
// limits.
func TestServerLimitCaps(t *testing.T) {
	sys := testSystem(t)
	srv := newServer(t, sys, Config{MaxLimit: 1})
	resp, body := get(t, srv.URL+"/sparql?limit=100&query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	if out := decodeJSON(t, body); len(out.Results.Bindings) != 1 {
		t.Fatalf("MaxLimit=1 returned %d bindings", len(out.Results.Bindings))
	}
}

// TestOverload503: admission rejection surfaces as 503 plus a
// Retry-After hint while a streaming read pins the only slot.
func TestOverload503(t *testing.T) {
	sys := testSystem(t, sparqlopt.WithAdmissionControl(1, 0))
	srv := newServer(t, sys, Config{})

	rows, err := sys.RunStream(context.Background(), orgQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	resp, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	resp, body = get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d %s", resp.StatusCode, body)
	}
}

// TestBoundedMemoryOverHTTP is the serving face of the redesign's
// acceptance bar: a result whose materialized form exceeds the
// per-query budget — Run trips on it — still completes over HTTP,
// because the endpoint streams. A budget that trips before the first
// byte is a 507.
func TestBoundedMemoryOverHTTP(t *testing.T) {
	ds := sparqlopt.NewDataset()
	for i := 0; i < 300; i++ {
		for j := 0; j < 300; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	// One node keeps the scan dedup-free; see TestStreamBoundedMemory.
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(1), sparqlopt.WithMemoryBudget(1<<21, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const src = `SELECT * WHERE { ?a <n> ?b . }`

	srv := newServer(t, sys, Config{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/sparql?query="+url.QueryEscape(src), nil)
	req.Header.Set("Accept", ctTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rowCount := 0
	sc := newLineCounter(resp.Body)
	for sc.next() {
		rowCount++
	}
	resp.Body.Close()
	if sc.err != nil {
		t.Fatalf("streamed body failed: %v", sc.err)
	}
	if resp.StatusCode != http.StatusOK || rowCount != 90000+1 { // header + rows
		t.Fatalf("streamed: %d, %d lines; want 200 with 90001 lines", resp.StatusCode, rowCount)
	}

	if _, err := sys.Run(context.Background(), src); !errors.Is(err, sparqlopt.ErrBudgetExceeded) {
		t.Fatalf("Run materializing the same result: %v, want ErrBudgetExceeded", err)
	}

	// One byte of budget cannot hold even the scan under the stream.
	tiny := newServer(t, testSystem(t, sparqlopt.WithMemoryBudget(1, 0)), Config{})
	resp2, body := get(t, tiny.URL+"/sparql?query="+url.QueryEscape(orgQuery))
	if resp2.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("budget tripped before the first byte: %d %.120s, want 507", resp2.StatusCode, body)
	}
}

// TestCrossNodeDuplicatesOverHTTP: hash-so places every triple on its
// subject's node and on its object's, so a scan root hands the stream
// almost every row twice; the body must hold Reference's rows, each
// once.
func TestCrossNodeDuplicatesOverHTTP(t *testing.T) {
	ds := sparqlopt.NewDataset()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const src = `SELECT ?a ?b WHERE { ?a <n> ?b . }`
	q, err := sparqlopt.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sparqlopt.Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range ref.Rows {
		want = append(want, "<"+sys.Term(row[0])+">\t<"+sys.Term(row[1])+">")
	}
	sort.Strings(want)

	srv := newServer(t, sys, Config{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/sparql?query="+url.QueryEscape(src), nil)
	req.Header.Set("Accept", ctTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%d, %v", resp.StatusCode, err)
	}
	got := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")[1:]
	sort.Strings(got)
	if len(got) != len(want) || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("body holds %d rows, Reference %d", len(got), len(want))
	}
}

// lineCounter counts newline-terminated lines without retaining them.
type lineCounter struct {
	r       io.Reader
	buf     []byte
	pending int
	err     error
}

func newLineCounter(r io.Reader) *lineCounter {
	return &lineCounter{r: r, buf: make([]byte, 64<<10)}
}

func (l *lineCounter) next() bool {
	for {
		if l.pending > 0 {
			l.pending--
			return true
		}
		n, err := l.r.Read(l.buf)
		for _, b := range l.buf[:n] {
			if b == '\n' {
				l.pending++
			}
		}
		if err != nil {
			if l.pending > 0 {
				l.pending--
				if err != io.EOF {
					l.err = err
				}
				return true
			}
			if err != io.EOF {
				l.err = err
			}
			return false
		}
	}
}

// TestMidStreamDisconnect: a client that walks away mid-body cancels
// the query; the in-flight gauge drains and the server keeps serving.
func TestMidStreamDisconnect(t *testing.T) {
	ds := sparqlopt.NewDataset()
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(1),
		sparqlopt.WithAdmissionControl(4, 0), sparqlopt.WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := newServer(t, sys, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?a <n> ?b . }`), nil)
	req.Header.Set("Accept", ctTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1<<10)
	if _, err := io.ReadFull(resp.Body, one); err != nil {
		t.Fatalf("reading the first KiB: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := get(t, srv.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %d", resp.StatusCode)
		}
		if strings.Contains(string(body), "resilience_in_flight 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge never drained after disconnect:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp2, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?a <n> ?b . } `)+"&limit=5")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("serving after a disconnect: %d %s", resp2.StatusCode, body)
	}
}

// TestDebugEndpoints: slowlog and trace are exposed only with Debug.
func TestDebugEndpoints(t *testing.T) {
	sys := testSystem(t, sparqlopt.WithObservability(sparqlopt.WithSlowQueryLog(8, 0)))
	srv := newServer(t, sys, Config{Debug: true})

	if resp, _ := get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery)); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	resp, body := get(t, srv.URL+"/debug/slowlog")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "rows=3") {
		t.Fatalf("slowlog: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/debug/trace?query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "execute") {
		t.Fatalf("trace: %d %s", resp.StatusCode, body)
	}

	plain := newServer(t, sys, Config{})
	if resp, _ := get(t, plain.URL+"/debug/slowlog"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("slowlog without Debug: %d, want 404", resp.StatusCode)
	}
}

// TestHealthAndMetrics: the liveness and exposition endpoints answer.
func TestHealthAndMetrics(t *testing.T) {
	sys := testSystem(t, sparqlopt.WithObservability())
	srv := newServer(t, sys, Config{})
	if resp, body := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "query_runs_total") {
		t.Fatalf("metrics: %d %.200s", resp.StatusCode, body)
	}
}

// TestServeSmoke is the make-check gate: a mixed workload — cache hits
// and misses, an overload burst, a mid-stream disconnect — against one
// server, then a clean shutdown with zero leaked goroutines.
func TestServeSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ds := sparqlopt.NewDataset()
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("p%d", i), "worksFor", fmt.Sprintf("org%d", i%5))
		ds.Add(fmt.Sprintf("org%d", i%5), "inCity", fmt.Sprintf("city%d", i%3))
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(4),
		sparqlopt.WithPlanCache(32),
		sparqlopt.WithAdmissionControl(2, 2),
		sparqlopt.WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(sys, Config{MaxTimeout: 10 * time.Second}))

	queries := []string{
		`SELECT ?p ?o WHERE { ?p <worksFor> ?o . }`,
		`SELECT ?p ?c WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`,
		`SELECT ?o WHERE { ?p <worksFor> ?o . }`,
	}
	var wg sync.WaitGroup
	var ok, rejected, failed int
	var mu sync.Mutex
	for round := 0; round < 4; round++ {
		for _, q := range queries { // repeats make cache hits
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusServiceUnavailable:
					rejected++
				default:
					failed++
				}
				mu.Unlock()
			}(q)
		}
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d requests failed outright", failed)
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}

	// A walk-away client mid-burst must not wedge the server.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(queries[1]), nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		cancel()
		resp.Body.Close()
	} else {
		cancel()
	}

	if resp, _ := get(t, srv.URL+"/sparql?query="+url.QueryEscape(queries[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the burst: %d", resp.StatusCode)
	}

	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	sys.Close()

	// Manual leak check: allow the runtime a moment to retire handler
	// goroutines, then diff against the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	t.Logf("smoke: %d ok, %d overload-rejected, 0 leaked goroutines", ok, rejected)
}

// TestUnavailableMapsTo503: a query that needs a dead node's
// unreplicated fragment must surface as 503 with a Retry-After hint —
// the SPARQL-protocol face of the typed UnavailableError — and
// /healthz must degrade to 503 naming the open breaker while the node
// is down, then return to ok once the breaker closes.
func TestUnavailableMapsTo503(t *testing.T) {
	var nanos atomic.Int64
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }
	// One node: killing it strands every triple, so any query is a
	// typed unavailable failure while its breaker is open.
	sys := testSystem(t,
		sparqlopt.WithNodes(1),
		sparqlopt.WithNodeFailover(sparqlopt.NodeFailoverConfig{Clock: clock}))
	srv := newServer(t, sys, Config{})

	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while healthy: %d", resp.StatusCode)
	}

	// Trip node 0's breaker with directly-injected scan faults.
	faults := sparqlopt.NewFaultSet(1)
	faults.Arm(sparqlopt.FaultNodeScan(0), 1)
	for i := 0; i < 3; i++ {
		sys.Run(context.Background(), orgQuery, sparqlopt.WithFaultInjection(faults))
	}
	if st := sys.NodeHealth(); st[0].State != sparqlopt.NodeOpen {
		t.Fatalf("node 0 breaker = %v, want open", st[0].State)
	}

	resp, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-node query: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 on UnavailableError must carry Retry-After")
	}
	if !strings.Contains(string(body), "unavailable") {
		t.Errorf("503 body %q does not name the failure", body)
	}

	resp, body = get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with an open breaker: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") || !strings.Contains(string(body), "node 0: open") {
		t.Errorf("healthz body %q should report the open breaker", body)
	}

	// Past the open window the next queries are the half-open probes;
	// two clean ones close the breaker and serving returns to 200/ok.
	nanos.Store(int64(2 * time.Second))
	for probe, want := range []string{"node 0: half-open", "node 0: healthy"} {
		if resp, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(orgQuery)); resp.StatusCode != http.StatusOK {
			t.Fatalf("probe query %d: %d %s", probe, resp.StatusCode, body)
		}
		if resp, body := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("healthz after probe %d: %d %q, want 200 naming %q", probe, resp.StatusCode, body, want)
		}
	}
}
