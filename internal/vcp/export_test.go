package vcp

// NewEvaluatorWidth exposes the γ-batch width hook to the package's
// external tests: width g, or the scalar interpreter when g == 0.
var NewEvaluatorWidth = newEvaluator

// NewMemoLimit returns an empty Memo bounded at n entries instead of
// the production bound, so external tests reach the bound on small
// inputs.
func NewMemoLimit(n int) *Memo { return &Memo{limit: n} }

// Len returns the number of memoized assignments.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tab := m.tab.Load(); tab != nil {
		return tab.n
	}
	return 0
}
