package compile

// NewEngineMode builds an engine in any (execution, search) pairing, so
// the external differential tests can cover the full 2×2 matrix and not
// only the two pairings NewEngine and NewReferenceEngine offer.
func NewEngineMode(interpret, exhaustive bool) *Engine { return newEngine(interpret, exhaustive) }
