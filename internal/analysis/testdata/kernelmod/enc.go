// Package kernelmod is the kernel-coverage fixture for the scheme-contract
// analyzer: both schemes satisfy every other clause (native kernel,
// registration, golden pin, mask-equivalence fuzz via the registry sweep),
// but the kernel-equivalence fuzz target names its schemes directly instead
// of sweeping the registry, and NoKernel is deliberately absent from it.
package kernelmod

// Encoder is the fixture's scheme interface.
type Encoder interface {
	Name() string
	Encode(b []byte) []bool
}

// Kernel is the fixture's compiled scheme.
type Kernel struct {
	enc    Encoder
	native bool
}

// CompileEncoder compiles a scheme: the cases of its type switch are the
// schemes with native kernels.
func CompileEncoder(enc Encoder) *Kernel {
	k := &Kernel{enc: enc}
	switch enc.(type) {
	case Good, *NoKernel:
		k.native = true
	}
	return k
}

var registry = map[string]func() Encoder{}

// Register adds a scheme factory under a name.
func Register(name string, factory func() Encoder) {
	registry[name] = factory
}

// Names lists the registered scheme names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	return names
}

// Good satisfies every clause of the contract, including the
// kernel-equivalence pin.
type Good struct{}

// Name implements Encoder.
func (Good) Name() string { return "good" }

// Encode implements Encoder.
func (Good) Encode(b []byte) []bool { return make([]bool, len(b)) }

// NoKernel satisfies every other clause — through a pointer case in
// CompileEncoder's switch — but is absent from the kernel-equivalence fuzz
// target: the one seeded violation.
type NoKernel struct{}

// Name implements Encoder.
func (*NoKernel) Name() string { return "nokernel" }

// Encode implements Encoder.
func (*NoKernel) Encode(b []byte) []bool { return make([]bool, len(b)) }

func init() {
	Register("good", func() Encoder { return Good{} })
	Register("nokernel", func() Encoder { return &NoKernel{} })
}
