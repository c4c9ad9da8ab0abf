package opt

import (
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/resilience/faultinject"
)

// RunSettings is the resolved per-call configuration of one serving
// call (Run/Optimize and friends). It lives here — not in the root
// package — so that Algorithm itself can implement RunOption: old call
// sites passing a bare algorithm (`sys.Run(ctx, src, opt.TDCMD)`) keep
// compiling against the variadic signatures.
type RunSettings struct {
	// Algorithm is the optimization algorithm. Defaults to TDAuto.
	Algorithm Algorithm
	// Deadline, when positive, bounds the call with a per-call timeout
	// layered on whatever deadline ctx already carries.
	Deadline time.Duration
	// TraceSink, when non-nil, enables lifecycle tracing for the call;
	// the completed trace is handed to the sink before the call returns.
	TraceSink func(*obs.Trace)
	// Limit, when positive, caps the number of result rows one call
	// returns: the stream ends after Limit rows and enumeration stops.
	// The cap applies to the engine's deterministic emission order,
	// before Run's final sort.
	Limit int64
	// Faults, when non-nil, arms the call's deterministic fault
	// injection (chaos tests only; nil in production).
	Faults *faultinject.Set
}

// RunOption configures one serving call.
type RunOption interface {
	ApplyRun(*RunSettings)
}

// ApplyRun lets a bare Algorithm act as a RunOption selecting itself,
// preserving source compatibility with the old positional signatures.
func (a Algorithm) ApplyRun(s *RunSettings) { s.Algorithm = a }

// RunOptionFunc adapts a function to the RunOption interface; the root
// package's With* constructors are built on it.
type RunOptionFunc func(*RunSettings)

// ApplyRun invokes f.
func (f RunOptionFunc) ApplyRun(s *RunSettings) { f(s) }

// NewRunSettings folds opts over the defaults (TDAuto, no deadline,
// no trace, cache on). Nil options are ignored.
func NewRunSettings(opts []RunOption) RunSettings {
	s := RunSettings{Algorithm: TDAuto}
	for _, o := range opts {
		if o != nil {
			o.ApplyRun(&s)
		}
	}
	return s
}
