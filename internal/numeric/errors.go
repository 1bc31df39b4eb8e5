package numeric

import "errors"

// ErrOutOfRange reports a query outside the domain a fitted surface covers.
// Callers that need a hard domain boundary — e.g. the refinement surrogate
// rejecting off-grid queries instead of silently clamping them to the edge —
// wrap it with the offending coordinate and test with errors.Is.
var ErrOutOfRange = errors.New("numeric: interpolation query outside the knot range")
