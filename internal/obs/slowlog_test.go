package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilSlowLog(t *testing.T) {
	var l *SlowLog
	if l2 := NewSlowLog(0, time.Second); l2 != nil {
		t.Error("capacity 0 must return the nil (disabled) log")
	}
	if l.Record(SlowQueryEntry{Duration: time.Hour}) {
		t.Error("nil log must drop everything")
	}
	if l.Entries() != nil || l.Total() != 0 {
		t.Error("nil log must read empty")
	}
}

func TestSlowLogThreshold(t *testing.T) {
	l := NewSlowLog(8, 100*time.Millisecond)
	if l.threshold != 100*time.Millisecond {
		t.Fatalf("threshold = %v", l.threshold)
	}
	if l.Record(SlowQueryEntry{Query: "fast", Duration: 10 * time.Millisecond}) {
		t.Error("fast success must be dropped")
	}
	if !l.Record(SlowQueryEntry{Query: "slow", Duration: 150 * time.Millisecond}) {
		t.Error("slow success must be kept")
	}
	if !l.Record(SlowQueryEntry{Query: "failed", Duration: time.Millisecond, Err: "boom"}) {
		t.Error("failures must be kept regardless of duration")
	}
	es := l.Entries()
	if len(es) != 2 || es[0].Query != "failed" || es[1].Query != "slow" {
		t.Fatalf("entries = %+v, want [failed slow] newest first", es)
	}
	if l.Total() != 2 {
		t.Errorf("total = %d, want 2", l.Total())
	}
}

func TestSlowLogRingOverwrite(t *testing.T) {
	l := NewSlowLog(3, 0)
	for i := 0; i < 5; i++ {
		l.Record(SlowQueryEntry{Query: fmt.Sprintf("q%d", i), Duration: time.Second})
	}
	es := l.Entries()
	if len(es) != 3 {
		t.Fatalf("len = %d, want capacity 3", len(es))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if es[i].Query != want {
			t.Errorf("entries[%d] = %s, want %s", i, es[i].Query, want)
		}
	}
	if l.Total() != 5 {
		t.Errorf("total = %d, want 5 (overwritten entries still counted)", l.Total())
	}
}

func TestSlowQueryEntryString(t *testing.T) {
	e := SlowQueryEntry{
		Time:      time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Query:     "SELECT  ?x\nWHERE { ?x <p> ?y }",
		Algorithm: "TD-CMD",
		Duration:  1500 * time.Millisecond,
		Rows:      12,
		CacheHit:  true,
		Phases:    []PhaseTiming{{Name: "optimize", Dur: 2 * time.Millisecond}, {Name: "execute", Dur: time.Second}},
	}
	s := e.String()
	for _, want := range []string{"TD-CMD", "rows=12", "cache=hit", "optimize=2ms", "execute=1s",
		`query="SELECT ?x WHERE { ?x <p> ?y }"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
	fail := SlowQueryEntry{Err: "query phase join: context canceled"}
	if !strings.Contains(fail.String(), `ERROR "query phase join: context canceled"`) {
		t.Errorf("failure String() = %q", fail.String())
	}
	long := SlowQueryEntry{Query: strings.Repeat("x ", 300)}
	if ls := long.String(); !strings.Contains(ls, "...") || len(ls) > 320 {
		t.Errorf("long query must be condensed, got %d bytes", len(ls))
	}
}
