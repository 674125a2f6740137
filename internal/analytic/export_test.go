package analytic

// OptimizeContinuousEvals is OptimizeContinuous that also returns how many
// feasible points it evaluated, for the external tests that count them.
var OptimizeContinuousEvals = optimizeContinuous
