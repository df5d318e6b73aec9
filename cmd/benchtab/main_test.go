package main

import (
	"strings"
	"testing"
)

func TestCheckOnlyAcceptsEveryKey(t *testing.T) {
	for _, key := range []string{"", "all", "figures", "transfer", "I", "VI", "alpha", "shadow"} {
		if err := checkOnly(key); err != nil {
			t.Errorf("checkOnly(%q) = %v, want nil", key, err)
		}
	}
}

func TestCheckOnlyRejectsUnknownKey(t *testing.T) {
	err := checkOnly("VII")
	if err == nil {
		t.Fatal("checkOnly(\"VII\") = nil, want an error")
	}
	for _, want := range []string{`"VII"`, "I, II, III, IV, V, VI", "transfer, figures, all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
