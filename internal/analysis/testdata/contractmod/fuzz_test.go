package contractmod

import "testing"

// FuzzMaskEquivalence sweeps the registry, so every registered scheme is
// fuzz-covered without being named here.
func FuzzMaskEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Names() {
			k := CompileEncoder(registry[name]())
			if len(k.enc.Encode(data)) != len(data) {
				t.Fatal("kernel disagrees with oracle")
			}
		}
	})
}
