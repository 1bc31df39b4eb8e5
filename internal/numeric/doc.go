// Package numeric provides the small, deterministic numerical toolbox that
// the rest of the repository is built on: seeded pseudo-random number
// generation, scalar root finding, one- and two-dimensional optimization
// and summary statistics.
//
// The Go standard library deliberately ships no general numerics package, so
// everything here is hand-rolled against the needs of the Ma–Misra "Public
// Option" model: the rate equilibria of the paper are fixed points of
// monotone maps (solved by bisection), ISP strategy optimization is low
// dimensional (solved by grid search refined with golden-section), and every
// experiment must be bit-reproducible (seeded SplitMix64, no global state).
//
// All functions are pure and safe for concurrent use unless documented
// otherwise (RNG values are stateful and not safe for concurrent use; seed
// one per goroutine with NewRNG).
package numeric
