// Package httpd serves a System over the SPARQL 1.1 protocol. It is
// the network face of the streaming results API: responses are encoded
// row by row straight off a RunStream cursor, so a response body can be
// arbitrarily larger than the per-query memory budget — the resident
// state is one engine chunk, at most two nodes' root outputs and the
// encoder's buffer (see encode.go).
//
// Endpoints:
//
//	POST/GET /sparql   SPARQL 1.1 protocol query endpoint. Accepts the
//	                   query as ?query= (GET), an urlencoded form
//	                   (POST application/x-www-form-urlencoded) or a
//	                   raw body (POST application/sparql-query), and
//	                   negotiates application/sparql-results+json
//	                   (default) or text/tab-separated-values.
//	                   Optional parameters: limit, timeout (seconds),
//	                   algorithm (td-auto, td-cmd, td-cmdp, hgr-td-cmd,
//	                   greedy).
//	GET /metrics       Prometheus text exposition (System.WriteMetrics).
//	GET /healthz       liveness probe; with node failover enabled it
//	                   reports per-node breaker states and degrades to
//	                   503 while any node's breaker is open.
//	GET /debug/slowlog with Config.Debug: the slow-query log, one line
//	                   per entry, newest first.
//	GET /debug/trace   with Config.Debug: runs ?query= to completion
//	                   and returns its lifecycle trace tree.
//
// Failures map onto the protocol: malformed queries are 400 with the
// parse offset, admission-control rejections and dead-node
// unavailability (sparqlopt.UnavailableError) are 503 with a
// Retry-After hint, per-request deadlines are 504, memory-budget trips
// are 507. A
// failure after the first result byte cannot change the status line
// anymore; the handler aborts the connection instead of silently
// truncating a well-formed body.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparqlopt"
)

// Config tunes a Server. The zero value serves with no default or
// maximum timeout/limit and no debug endpoints.
type Config struct {
	// DefaultTimeout bounds requests that do not send ?timeout=; 0
	// means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout=; 0 means no cap.
	MaxTimeout time.Duration
	// DefaultLimit bounds requests that do not send ?limit=; 0 means
	// unlimited.
	DefaultLimit int64
	// MaxLimit caps the client-requested ?limit=; 0 means no cap.
	MaxLimit int64
	// DefaultAlgorithm applies to requests that do not send
	// ?algorithm=; nil means the System's default.
	DefaultAlgorithm *sparqlopt.Algorithm
	// Debug exposes /debug/slowlog and /debug/trace.
	Debug bool
}

// Server is the SPARQL-protocol handler for one System.
type Server struct {
	sys *sparqlopt.System
	cfg Config
	mux *http.ServeMux
}

// New builds a Server around sys.
func New(sys *sparqlopt.System, cfg Config) *Server {
	s := &Server{sys: sys, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/sparql", s.handleSPARQL)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Debug {
		s.mux.HandleFunc("/debug/slowlog", s.handleSlowLog)
		s.mux.HandleFunc("/debug/trace", s.handleTrace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleHealthz is the probe endpoint. Without node failover it is a
// pure liveness check ("ok"). With WithNodeFailover it also reflects
// the cluster's fault domains: any node whose breaker is open degrades
// the probe to 503 so load balancers can drain the instance, and the
// body lists every node's breaker state either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := s.sys.NodeHealth()
	if nodes == nil {
		io.WriteString(w, "ok\n")
		return
	}
	degraded := false
	var b strings.Builder
	for _, st := range nodes {
		if st.State == sparqlopt.NodeOpen {
			degraded = true
		}
		fmt.Fprintf(&b, "node %d: %s\n", st.Node, st.State)
	}
	if degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "degraded\n")
	} else {
		io.WriteString(w, "ok\n")
	}
	io.WriteString(w, b.String())
}

// Content types of the protocol.
const (
	ctSPARQLQuery = "application/sparql-query"
	ctForm        = "application/x-www-form-urlencoded"
	ctJSON        = "application/sparql-results+json"
	ctTSV         = "text/tab-separated-values"
)

// flushBytes is how much encoded output may buffer before it is
// written and flushed to the client mid-stream.
const flushBytes = 32 << 10

// encodeBufs recycles response buffers across requests. A buffer
// passes flushBytes by at most one row, so only a response with a
// pathologically long row grows one; those are dropped, not pooled.
var encodeBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, flushBytes+flushBytes/8)
	return &buf
}}

// request is one decoded protocol request: the query text, the
// negotiated encoder and the run's bounds — a deadline and a row limit,
// each 0 when none applies — and algorithm (nil: the system's default).
type request struct {
	query   string
	enc     encoder
	timeout time.Duration
	limit   int64
	algo    *sparqlopt.Algorithm
}

// opts returns the request's per-run options.
func (req *request) opts() []sparqlopt.RunOption {
	var opts []sparqlopt.RunOption
	if req.timeout > 0 {
		opts = append(opts, sparqlopt.WithDeadline(req.timeout))
	}
	if req.limit > 0 {
		opts = append(opts, sparqlopt.WithLimit(req.limit))
	}
	if req.algo != nil {
		opts = append(opts, sparqlopt.WithAlgorithm(*req.algo))
	}
	return opts
}

// handleSPARQL is the protocol query endpoint.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	rows, err := s.sys.RunStream(r.Context(), req.query, req.opts()...)
	if err != nil {
		writeError(w, err)
		return
	}
	defer rows.Close()
	s.encodeStream(w, req.enc, rows)
}

// decodeRequest extracts the query text, per-request options and the
// negotiated encoder; on failure it has already written the response.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (request, bool) {
	var req request
	var params map[string][]string
	switch r.Method {
	case http.MethodGet:
		params = r.URL.Query()
		req.query = first(params, "query")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		switch strings.TrimSpace(strings.ToLower(ct)) {
		case ctSPARQLQuery:
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
			if err != nil {
				http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
				return req, false
			}
			req.query = string(body)
			params = r.URL.Query()
		case ctForm, "":
			if err := r.ParseForm(); err != nil {
				http.Error(w, "malformed form body: "+err.Error(), http.StatusBadRequest)
				return req, false
			}
			params = r.Form
			req.query = first(params, "query")
		default:
			http.Error(w, fmt.Sprintf("unsupported content type %q (want %s or %s)", ct, ctSPARQLQuery, ctForm),
				http.StatusUnsupportedMediaType)
			return req, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return req, false
	}
	if strings.TrimSpace(req.query) == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return req, false
	}

	enc, ok := negotiate(r.Header.Get("Accept"))
	if !ok {
		http.Error(w, fmt.Sprintf("not acceptable: supported result formats are %s and %s", ctJSON, ctTSV),
			http.StatusNotAcceptable)
		return req, false
	}
	req.enc = enc

	req.timeout = s.cfg.DefaultTimeout
	if v := first(params, "timeout"); v != "" {
		timeout, ok := parseTimeout(v)
		if !ok {
			http.Error(w, fmt.Sprintf("invalid timeout %q: want seconds > 0", v), http.StatusBadRequest)
			return req, false
		}
		req.timeout = timeout
	}
	if s.cfg.MaxTimeout > 0 && (req.timeout <= 0 || req.timeout > s.cfg.MaxTimeout) {
		req.timeout = s.cfg.MaxTimeout
	}

	limit := s.cfg.DefaultLimit
	if v := first(params, "limit"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("invalid limit %q: want a positive integer", v), http.StatusBadRequest)
			return req, false
		}
		limit = n
	}
	if s.cfg.MaxLimit > 0 && (limit <= 0 || limit > s.cfg.MaxLimit) {
		limit = s.cfg.MaxLimit
	}
	req.limit = max(limit, 0)

	req.algo = s.cfg.DefaultAlgorithm
	if v := first(params, "algorithm"); v != "" {
		algo, ok := sparqlopt.AlgorithmByName(v)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown algorithm %q", v), http.StatusBadRequest)
			return req, false
		}
		req.algo = &algo
	}
	return req, true
}

// parseTimeout reads a ?timeout= value in seconds. Only a value that
// converts to a positive time.Duration is one: NaN, infinities, values
// past the Duration range and values below a nanosecond would otherwise
// turn into no deadline at all.
func parseTimeout(v string) (time.Duration, bool) {
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || !(secs > 0) || secs >= float64(math.MaxInt64/int64(time.Second)) {
		return 0, false
	}
	d := time.Duration(secs * float64(time.Second))
	return d, d > 0
}

func first(params map[string][]string, key string) string {
	if vs := params[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// negotiate picks the result encoder for an Accept header. Empty,
// */* and application/* mean JSON, the protocol default.
func negotiate(accept string) (encoder, bool) {
	if strings.TrimSpace(accept) == "" {
		return &jsonEncoder{}, true
	}
	for _, part := range strings.Split(accept, ",") {
		mt := part
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = mt[:i]
		}
		switch strings.TrimSpace(strings.ToLower(mt)) {
		case ctJSON, "application/json", "application/*", "*/*":
			return &jsonEncoder{}, true
		case ctTSV, "text/*":
			return tsvEncoder{}, true
		}
	}
	return nil, false
}

// encodeStream writes the negotiated representation off the cursor:
// rows are appended to one pooled buffer that goes out in a single
// Write each time it passes flushBytes. A failure before the first
// Write — the stream runs the root's work as it goes, so its first
// node's can fail here — is answered like one at open (writeError). A
// failure after the first byte cannot change the status; the handler
// aborts the connection so the client sees a truncated transfer, not a
// silently short result.
func (s *Server) encodeStream(w http.ResponseWriter, enc encoder, rows *sparqlopt.Rows) {
	w.Header().Set("Content-Type", enc.contentType())
	flusher, _ := w.(http.Flusher)
	pooled := encodeBufs.Get().(*[]byte)
	buf := enc.header((*pooled)[:0], rows.Vars())
	defer func() {
		if cap(buf) <= 2*flushBytes {
			*pooled = buf
			encodeBufs.Put(pooled)
		}
	}()
	wrote := false
	for rows.Next() {
		buf = enc.row(buf, s.sys, rows.Row())
		if len(buf) >= flushBytes {
			if _, err := w.Write(buf); err != nil {
				return // the client is gone; the deferred Close abandons the stream
			}
			wrote = true
			if flusher != nil {
				flusher.Flush()
			}
			buf = buf[:0]
		}
	}
	if err := rows.Err(); err != nil {
		if !wrote {
			writeError(w, err)
			return
		}
		panic(http.ErrAbortHandler)
	}
	w.Write(enc.footer(buf)) // a failed last write has nobody left to tell
}

// writeError maps a serving failure onto the protocol, before the first
// body byte.
func writeError(w http.ResponseWriter, err error) {
	var pe *sparqlopt.ParseError
	var oe *sparqlopt.OverloadError
	var ue *sparqlopt.UnavailableError
	switch {
	case errors.As(err, &pe):
		http.Error(w, "malformed query: "+pe.Error(), http.StatusBadRequest)
	case errors.Is(err, sparqlopt.ErrUnsupportedQuery):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.As(err, &oe):
		secs := int(oe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &ue):
		// A dead node's unreplicated fragment: the query cannot be
		// answered until the node recovers or its triples are
		// re-replicated. The retry hint is the breakers' probe horizon.
		secs := int(ue.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, sparqlopt.ErrBudgetExceeded):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written.
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics exposes the System's Prometheus registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.sys.WriteMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusNotImplemented)
	}
}

// handleSlowLog dumps the slow-query log, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range s.sys.SlowQueries() {
		fmt.Fprintln(w, e.String())
	}
}

// handleTrace runs ?query= to completion with a trace sink and returns
// the lifecycle tree — the debug view of one serving call.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query().Get("query")
	if strings.TrimSpace(query) == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	var tr *sparqlopt.Trace
	_, err := s.sys.Run(r.Context(), query, sparqlopt.WithTraceSink(func(t *sparqlopt.Trace) { tr = t }))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, tr.Format())
}
