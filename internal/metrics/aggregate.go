package metrics

import "errors"

// ErrNoClasses is returned by aggregations over an empty class list.
var ErrNoClasses = errors.New("metrics: no per-class matrices to aggregate")

// MacroAverageResult reports a macro-averaged metric value along with how
// many classes the metric was actually defined on.
type MacroAverageResult struct {
	Value        float64
	DefinedOn    int
	TotalClasses int
}

// MacroAverage computes the unweighted mean of the metric across classes,
// skipping classes where the metric is undefined. Macro-averaging weighs
// every vulnerability class equally regardless of how many instances it
// has. It returns an UndefinedError if the metric is defined on no class.
func MacroAverage(m Metric, perClass []Confusion) (MacroAverageResult, error) {
	if len(perClass) == 0 {
		return MacroAverageResult{}, ErrNoClasses
	}
	var sum float64
	defined := 0
	for _, c := range perClass {
		v, err := m.Value(c)
		if err != nil {
			if IsUndefined(err) {
				continue
			}
			return MacroAverageResult{}, err
		}
		sum += v
		defined++
	}
	if defined == 0 {
		return MacroAverageResult{}, undef(m.ID, Confusion{}, "metric undefined on every class")
	}
	return MacroAverageResult{
		Value:        sum / float64(defined),
		DefinedOn:    defined,
		TotalClasses: len(perClass),
	}, nil
}
