package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"roadtrojan/internal/obs"
)

// writeJournals flushes each process's in-memory journal to
// <dir>/<workload>.<proc>.trace.jsonl and returns the parsed records, ready
// for obs.MergeTrace. The files merge with cmd/tracetool (see doc.go).
func writeJournals(dir, workload string, journals []*journal) ([]obs.ProcessJournal, error) {
	var out []obs.ProcessJournal
	for _, jn := range journals {
		if err := jn.j.Flush(); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.%s.trace.jsonl", workload, jn.proc))
		if err := os.WriteFile(path, jn.buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		recs, err := obs.ReadJournal(bytes.NewReader(jn.buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, obs.ProcessJournal{Proc: jn.proc, Records: recs})
	}
	return out, nil
}

// interval is a closed span of global ticks.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur interval
	for i, iv := range ivs {
		if i == 0 || iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it that its children
// cover. An unfinished span has no self time.
func selfTime(s *obs.MergedSpan) int64 {
	if s.Dur < 0 {
		return 0
	}
	var ivs []interval
	for _, c := range s.Children {
		if c.Dur < 0 {
			continue
		}
		lo, hi := max(c.GStart, s.GStart), min(c.GEnd, s.GEnd)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	return s.Dur - covered(ivs)
}

// breakdown is the per-request attribution of a merged trace.
type breakdown struct {
	roots        int
	self         map[string]int64 // self ticks summed over every span of a name
	unattributed int64            // critical-path ticks no child span covers, summed over roots
}

// attribute walks every root that started at or after tick from and did
// work (has children), and sums self time by span name. On each root's
// critical path, the self time of the spans that have children is time no
// child span accounts for: framing, queueing hand-offs and JSON between the
// layers.
func attribute(m *obs.MergedTrace, from int64) breakdown {
	b := breakdown{self: map[string]int64{}}
	var walk func(s *obs.MergedSpan)
	walk = func(s *obs.MergedSpan) {
		b.self[s.Name] += selfTime(s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, root := range m.Roots {
		if root.GStart < from || len(root.Children) == 0 || root.Dur < 0 {
			continue
		}
		b.roots++
		walk(root)
		for _, s := range obs.CriticalPath(root) {
			if len(s.Children) > 0 {
				b.unattributed += selfTime(s)
			}
		}
	}
	return b
}

// setTraceLayers merges the journals and, over the requests that started
// at or after from (UnixNano), records per-request self time for each named
// span and the unattributed critical-path time (wall-clock ticks are
// nanoseconds), and logs the stage breakdown.
func setTraceLayers(r *run, journals []obs.ProcessJournal, from int64) error {
	m, err := obs.MergeTrace(journals)
	if err != nil {
		return err
	}
	if m.Orphans > 0 {
		r.logf("warning: %d trace span(s) lost their parent", m.Orphans)
	}
	b := attribute(m, from)
	if b.roots == 0 {
		return fmt.Errorf("traced window recorded no request spans")
	}
	perRoot := func(ticks int64) float64 { return float64(ticks) / 1e6 / float64(b.roots) }
	for _, name := range traceSpans {
		r.set("trace."+name+".self_ms", perRoot(b.self[name]))
	}
	r.set("trace.unattributed_ms", perRoot(b.unattributed))
	for _, st := range m.StageBreakdown() {
		if st.Count-st.Unfinished > 0 {
			r.logf("trace stage %-18s n=%-6d mean %9.3f ms", st.Name, st.Count,
				float64(st.Total)/1e6/float64(st.Count-st.Unfinished))
		}
	}
	return nil
}
