package bench

import (
	"io"
	"testing"

	"sparqlopt/internal/race"
)

// TestObsOverheadDisabledPathBudget is the acceptance bound on the
// observability layer's disabled path: with the instruments compiled
// in but not wired (plain Open, every hook one nil check), serving
// must not be measurably slower than the fully-enabled path bounds it
// — total_disabled_seconds <= total_enabled_seconds * 1.02. Timing is
// min-of-k and interleaved inside the experiment; a few retries absorb
// machine noise on top of that.
func TestObsOverheadDisabledPathBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment; skipped with -short")
	}
	if race.Enabled {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	cfg := Config{Out: io.Discard, Quick: true, Nodes: 4, Seed: 1}
	const attempts = 5
	var report obsOverheadReport
	for i := 0; i < attempts; i++ {
		var err error
		if report, err = obsOverhead(cfg); err != nil {
			t.Fatal(err)
		}
		if len(report.Records) == 0 || report.TotalDisabledSeconds <= 0 {
			t.Fatalf("attempt %d: empty report: %+v", i, report)
		}
		for _, rec := range report.Records {
			if rec.Error != "" {
				t.Fatalf("attempt %d: %s failed: %s", i, rec.Query, rec.Error)
			}
		}
		if report.TotalDisabledSeconds <= report.TotalEnabledSeconds*1.02 {
			return
		}
		t.Logf("attempt %d: disabled %.4gs > enabled %.4gs * 1.02, retrying",
			i, report.TotalDisabledSeconds, report.TotalEnabledSeconds)
	}
	t.Errorf("disabled path over budget after %d attempts: disabled %.4gs, enabled %.4gs (bound %.4gs)",
		attempts, report.TotalDisabledSeconds, report.TotalEnabledSeconds,
		report.TotalEnabledSeconds*1.02)
}
