package main

import (
	"testing"

	"roadtrojan/internal/analysis/testdata/deadcode/lib"
)

func TestShared(t *testing.T) {
	if lib.SharedHelper() != 3 {
		t.Fatal("shared")
	}
}
