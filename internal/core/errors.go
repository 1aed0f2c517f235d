package core

import "errors"

// Sentinel errors of the traffic-plane API. Callers branch on these with
// errors.Is; the wrapped messages carry the specifics.
var (
	// ErrNoModel is returned when an operation needs a loaded model
	// (UpdateWeights before LoadModel).
	ErrNoModel = errors.New("core: no model installed")
	// ErrBadFeatureWidth is returned when a feature vector or model input
	// width disagrees with the device's NumFeatures.
	ErrBadFeatureWidth = errors.New("core: feature width mismatch")
	// ErrStructureMismatch is returned when an out-of-band weight update
	// would change the placed design (node kinds, widths, operators or
	// wiring) — structural changes need a full LoadModel (§3.3.1). It wraps
	// the graphcheck.ErrIncompatible finding.
	ErrStructureMismatch = errors.New("core: weight update changes model structure")
	// ErrBadConfig is returned for invalid device configurations.
	ErrBadConfig = errors.New("core: invalid device config")
)
