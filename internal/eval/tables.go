package eval

import (
	"fmt"
	"strings"
)

// Table is a paper-style results table: one row per method/setting, one
// column per challenge, with "PWC% / CWC" cells.
type Table struct {
	Title      string
	Challenges []string // column keys, in order
	Rows       []Row
}

// headerLabel maps challenge keys to the paper's column headers.
func headerLabel(key string) string {
	switch key {
	case "fix":
		return "fix"
	case "slight":
		return "slight rot."
	case "slow", "normal", "fast":
		return key
	case "angle-15":
		return "-15°"
	case "angle0":
		return "0°"
	case "angle+15":
		return "+15°"
	default:
		return key
	}
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	nameW := len("method")
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	const cellW = 12
	fmt.Fprintf(&b, "%-*s", nameW+2, "method")
	for _, c := range t.Challenges {
		fmt.Fprintf(&b, "%*s", cellW, headerLabel(c))
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", nameW+2+cellW*len(t.Challenges)))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for _, c := range t.Challenges {
			s, ok := r.Scores[c]
			cell := "--"
			if ok {
				cell = s.String()
			}
			fmt.Fprintf(&b, "%*s", cellW, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (PWC and CWC columns),
// the machine-readable companion written next to each figure/table.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("method")
	for _, c := range t.Challenges {
		fmt.Fprintf(&b, ",%s_pwc,%s_cwc", c, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.ReplaceAll(r.Name, ",", ";"))
		for _, c := range t.Challenges {
			s := r.Scores[c]
			cwc := 0
			if s.CWC {
				cwc = 1
			}
			fmt.Fprintf(&b, ",%.1f,%d", s.PWC, cwc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SpeedAngleChallenges are the six columns of Tables III–VI.
var SpeedAngleChallenges = []string{"slow", "normal", "fast", "angle-15", "angle0", "angle+15"}
