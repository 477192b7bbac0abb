// Package contractmod is a scheme-contract fixture: a miniature registry
// with one fully compliant scheme (Good), one allowlisted exception
// (Allowed), one that violates every clause (Bad), and one missing only its
// golden coverage and registered through a constructor (NoGolden).
package contractmod

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
// schemes with native kernels, everything else runs Encode.
func CompileEncoder(enc Encoder) *Kernel {
	k := &Kernel{enc: enc}
	switch enc.(type) {
	case Good, NoGolden:
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

// Good satisfies every clause of the contract.
type Good struct{}

// Name implements Encoder.
func (Good) Name() string { return "good" }

// Encode implements Encoder.
func (Good) Encode(b []byte) []bool { return make([]bool, len(b)) }

// Allowed implements Encoder only, but sits on the allowlist.
type Allowed struct{}

// Name implements Encoder.
func (Allowed) Name() string { return "allowed" }

// Encode implements Encoder.
func (Allowed) Encode(b []byte) []bool { return make([]bool, len(b)) }

// Bad violates every clause: no native kernel, never registered, absent
// from the golden and fuzz files.
type Bad struct{}

// Name implements Encoder.
func (Bad) Name() string { return "bad" }

// Encode implements Encoder.
func (Bad) Encode(b []byte) []bool { return make([]bool, len(b)) }

// NoGolden is compliant except for golden coverage, and is registered
// through its constructor rather than a literal.
type NoGolden struct{}

// NewNoGolden constructs a NoGolden.
func NewNoGolden() NoGolden { return NoGolden{} }

// Name implements Encoder.
func (NoGolden) Name() string { return "nogolden" }

// Encode implements Encoder.
func (NoGolden) Encode(b []byte) []bool { return make([]bool, len(b)) }

func init() {
	Register("good", func() Encoder { return Good{} })
	Register("nogolden", func() Encoder { return NewNoGolden() })
}
