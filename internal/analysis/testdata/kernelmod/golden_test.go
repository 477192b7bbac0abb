package kernelmod

import "testing"

// TestGolden pins both schemes' outcomes.
func TestGolden(t *testing.T) {
	if got := (Good{}).Name(); got != "good" {
		t.Fatalf("Name() = %q", got)
	}
	if got := (&NoKernel{}).Name(); got != "nokernel" {
		t.Fatalf("Name() = %q", got)
	}
}
