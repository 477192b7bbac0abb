package kernelmod

import "testing"

// FuzzMaskEquivalence sweeps the registry, so every registered scheme is
// mask-fuzz-covered without being named here.
func FuzzMaskEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Names() {
			CompileEncoder(registry[name]()).enc.Encode(data)
		}
	})
}
