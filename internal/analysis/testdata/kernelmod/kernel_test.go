package kernelmod

import "testing"

// FuzzKernelEquivalence names Good directly instead of sweeping the
// registry; NoKernel is deliberately absent, seeding the kernel-coverage
// violation.
func FuzzKernelEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var enc Encoder = Good{}
		inv := enc.Encode(data)
		if k := CompileEncoder(enc); k.native && len(inv) != len(data) {
			t.Fatal("kernel disagrees with oracle")
		}
	})
}
