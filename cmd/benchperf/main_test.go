package main

import (
	"strings"
	"testing"
)

func record(procs int, speedup float64) benchFile {
	return benchFile{
		GOMAXPROCS: procs,
		Benchmarks: []result{{Name: "MatMul128", NsPerOp: 1000, Speedup: speedup}},
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev benchFile
		cur  benchFile
		want []string // substrings of the single message; nil means pass
	}{
		{"gomaxprocs mismatch", record(2, 1.5), record(1, 1.5), []string{"GOMAXPROCS 2", "GOMAXPROCS 1"}},
		{"drop beyond tolerance", record(2, 1.5), record(2, 1.0), []string{"MatMul128", "1.50x -> 1.00x"}},
		{"drop within tolerance", record(2, 1.5), record(2, 1.2), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs := compare(&tc.prev, tc.cur)
			if tc.want == nil {
				if len(msgs) != 0 {
					t.Fatalf("compare = %q, want pass", msgs)
				}
				return
			}
			if len(msgs) != 1 {
				t.Fatalf("compare = %q, want one message", msgs)
			}
			for _, w := range tc.want {
				if !strings.Contains(msgs[0], w) {
					t.Errorf("message %q does not name %q", msgs[0], w)
				}
			}
		})
	}
}
