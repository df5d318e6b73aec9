package lib

import "testing"

func TestLib(t *testing.T) {
	if TestOnly() != 2 || !check() {
		t.Fatal("lib")
	}
}
