package dbiopt

import (
	"dbiopt/internal/adapt"
	"dbiopt/internal/dbi"
)

// Adaptive layer: online scheme selection for non-stationary traffic.
// NewAdaptiveStream / NewAdaptiveLaneSet build drivers whose scheme is
// chosen burst by burst by the internal/adapt windowed controller: every
// candidate scheme runs in shadow on the lane's own traffic, and the live
// scheme is replaced when a challenger's trailing-window cost beats it by
// a hysteresis margin. See DESIGN.md §7 for the controller and its switch
// protocol; serving-side adaptation is dbiserve's -adapt flag (sessions
// renegotiate mid-stream via SWITCH notices, SessionSwitch).
type (
	// Adapter chooses the scheme an adaptive Stream applies, burst by
	// burst: Current returns the live scheme's compiled Kernel, which the
	// stream encodes the next burst with. AdaptiveController is the
	// windowed implementation.
	Adapter = dbi.Adapter
	// AdaptiveConfig configures an AdaptiveController: candidate scheme
	// names, comparison weights, window length, hysteresis margin, and an
	// optional switch hook.
	AdaptiveConfig = adapt.Config
	// AdaptiveController is the windowed online scheme selector for one
	// lane (shadow cost tracking, hysteresis, switch protocol).
	AdaptiveController = adapt.Controller
	// AdaptiveSwitch records one scheme change of an AdaptiveController.
	AdaptiveSwitch = adapt.Switch
)

// Adaptive defaults, re-exported from internal/adapt.
const (
	// AdaptiveDefaultWindow is the default decision-window length in
	// bursts.
	AdaptiveDefaultWindow = adapt.DefaultWindow
	// AdaptiveDefaultMargin is the default fractional hysteresis margin.
	AdaptiveDefaultMargin = adapt.DefaultMargin
)

// NewAdaptive builds a windowed adaptive controller for one lane. Hand it
// to NewStream's adaptive counterpart via dbi.NewAdaptiveStream semantics:
// most callers want NewAdaptiveStream or NewAdaptiveLaneSet directly.
func NewAdaptive(cfg AdaptiveConfig) (*AdaptiveController, error) { return adapt.New(cfg) }

// NewAdaptiveStream returns a single-lane streaming encoder whose scheme
// is selected online by a fresh controller built from cfg. Steady-state
// Transmit — the live encode plus one shadow encode per challenger —
// performs zero heap allocations per burst.
func NewAdaptiveStream(cfg AdaptiveConfig) (*Stream, error) {
	c, err := adapt.New(cfg)
	if err != nil {
		return nil, err
	}
	return dbi.NewAdaptiveStream(c), nil
}

// NewAdaptiveLaneSet returns n adaptive streams, one independent
// controller per lane (cfg.Lane is stamped with the lane index in switch
// records). Adaptive lane sets run through the sharded Pipeline exactly
// like static ones, with switch points carried across chunk boundaries
// and totals bit-identical to the serial replay.
func NewAdaptiveLaneSet(cfg AdaptiveConfig, n int) (*LaneSet, error) {
	mk, err := adapt.Factory(cfg)
	if err != nil {
		return nil, err
	}
	return dbi.NewAdaptiveLaneSet(mk, n), nil
}

// AdapterOf returns the stream's controller, or nil for fixed-scheme
// streams. The concrete type of an adaptive facade stream is
// *AdaptiveController.
func AdapterOf(s *Stream) Adapter { return s.Adapter() }
