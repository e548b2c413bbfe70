package vcp

// NewEvaluatorWidth exposes the γ-batch width hook to the package's
// external tests: width g, or the scalar interpreter when g == 0.
var NewEvaluatorWidth = newEvaluator
