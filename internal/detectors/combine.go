package detectors

import (
	"errors"
	"fmt"
	"sort"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// CombineMode selects how a combined tool merges member findings.
type CombineMode int

// Combination modes. Union reports a sink if any member does (raises
// recall, inherits every member's false alarms); Intersection reports
// only sinks every member flags (raises precision, keeps only commonly
// found vulnerabilities); Majority reports sinks flagged by more than
// half of the members.
const (
	Union CombineMode = iota + 1
	Intersection
	Majority
)

// String implements fmt.Stringer.
func (m CombineMode) String() string {
	switch m {
	case Union:
		return "union"
	case Intersection:
		return "intersection"
	case Majority:
		return "majority"
	default:
		return fmt.Sprintf("CombineMode(%d)", int(m))
	}
}

// combined merges the findings of member tools. Combining static and
// dynamic tools is the standard industrial practice the original authors
// studied in their tool-combination work; the combined tool lets the
// benchmark quantify what each mode buys.
type combined struct {
	name    string
	mode    CombineMode
	members []Tool
}

var _ Tool = (*combined)(nil)
var _ CompileCacheable = (*combined)(nil)
var _ ExecEngineBindable = (*combined)(nil)

// WithCompileCache implements CompileCacheable by rebinding every member
// that supports a compile cache; other members are kept as-is.
func (c *combined) WithCompileCache(cc *cfg.Cache) Tool {
	clone := *c
	clone.members = make([]Tool, len(c.members))
	for i, m := range c.members {
		if ccm, ok := m.(CompileCacheable); ok {
			clone.members[i] = ccm.WithCompileCache(cc)
		} else {
			clone.members[i] = m
		}
	}
	return &clone
}

// WithExecEngine implements ExecEngineBindable by rebinding every member
// that executes services; other members are kept as-is.
func (c *combined) WithExecEngine(eng *compile.Engine) Tool {
	clone := *c
	clone.members = make([]Tool, len(c.members))
	for i, m := range c.members {
		if em, ok := m.(ExecEngineBindable); ok {
			clone.members[i] = em.WithExecEngine(eng)
		} else {
			clone.members[i] = m
		}
	}
	return &clone
}

// NewCombined builds a tool that merges the findings of members under the
// given mode.
func NewCombined(name string, mode CombineMode, members []Tool) (Tool, error) {
	if name == "" {
		return nil, errors.New("detectors: combined tool needs a name")
	}
	if mode != Union && mode != Intersection && mode != Majority {
		return nil, fmt.Errorf("detectors: unknown combine mode %d", int(mode))
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("detectors: combined tool needs at least 2 members, got %d", len(members))
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("detectors: member %d is nil", i)
		}
	}
	return &combined{name: name, mode: mode, members: append([]Tool(nil), members...)}, nil
}

func (c *combined) Name() string { return c.name }

// Class reports the class of the first member if all members agree, and
// ClassSimulated otherwise (a mixed-technology combination).
func (c *combined) Class() Class {
	first := c.members[0].Class()
	for _, m := range c.members[1:] {
		if m.Class() != first {
			return ClassSimulated
		}
	}
	return first
}

// Analyze implements Tool.
func (c *combined) Analyze(cs workload.Case, rng *stats.RNG) ([]Report, error) {
	votes := map[int]int{}
	conf := map[int]float64{}
	kinds := map[int]svclang.SinkKind{}
	for _, m := range c.members {
		var memberRNG *stats.RNG
		if rng != nil {
			memberRNG = rng.Split()
		}
		reports, err := m.Analyze(cs, memberRNG)
		if err != nil {
			return nil, fmt.Errorf("detectors: %s member %s: %w", c.name, m.Name(), err)
		}
		seen := map[int]bool{}
		for _, r := range reports {
			if seen[r.SinkID] {
				continue // one vote per member per sink
			}
			seen[r.SinkID] = true
			votes[r.SinkID]++
			kinds[r.SinkID] = r.Kind
			if r.Confidence > conf[r.SinkID] {
				conf[r.SinkID] = r.Confidence
			}
		}
	}
	threshold := 1
	switch c.mode {
	case Intersection:
		threshold = len(c.members)
	case Majority:
		threshold = len(c.members)/2 + 1
	}
	var out []Report
	for sinkID, n := range votes {
		if n < threshold {
			continue
		}
		out = append(out, Report{
			Service:    cs.Service.Name,
			SinkID:     sinkID,
			Kind:       kinds[sinkID],
			Confidence: conf[sinkID],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SinkID < out[j].SinkID })
	return out, nil
}
