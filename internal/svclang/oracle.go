package svclang

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// This file defines what "vulnerable" means for the mini-language, at two
// levels:
//
//  1. StructuralTaint: a white-box, per-event judgment — does
//     attacker-originated content occupy a *structural* position in the
//     value that reached the sink? This is the definitional notion of
//     injection (the attacker can alter the parse structure of the sink
//     payload, not merely data content).
//
//  2. Exploitable: the ground-truth oracle — a sink is vulnerable iff some
//     assignment of benign values and canonical attack payloads to the
//     service parameters produces a sink event with structural taint. The
//     workload generator labels every sink with this oracle, so ground
//     truth is computed, not asserted.
//
// Black-box tools do not get to see taint; they use Structure (the
// token-type skeleton of the sink value) and compare benign and attack
// runs, as real error-based penetration testers do.
//
// The per-kind judgments (StructuralTaint, Structure and the streaming
// StructureFingerprint) all dispatch through the shared sinkJudges
// table in judges.go; this file keeps the Structure tokenisers and the
// oracle search itself.

// quotedStructure tokenises SQL/XPath text into type tags: "str" for a
// string literal, "n" for a number, "w" for a word, single-character
// symbol tokens, and "ERR" for an unterminated string (a syntax error —
// precisely what error-based detection observes).
func quotedStructure(s string, sqlEscapes bool) []string {
	var out []string
	rs := []rune(s)
	i, n := 0, len(rs)
	for i < n {
		r := rs[i]
		switch {
		case r == ' ' || r == '\t' || r == '\n':
			i++
		case r == '\'' || (!sqlEscapes && r == '"'):
			quote := r
			i++
			closed := false
			for i < n {
				if rs[i] == quote {
					if sqlEscapes && i+1 < n && rs[i+1] == quote {
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				i++
			}
			if closed {
				out = append(out, "str")
			} else {
				out = append(out, "ERR")
			}
		case r >= '0' && r <= '9':
			for i < n && rs[i] >= '0' && rs[i] <= '9' {
				i++
			}
			out = append(out, "n")
		case isWordRune(r):
			for i < n && isWordRune(rs[i]) {
				i++
			}
			out = append(out, "w")
		default:
			out = append(out, string(r))
			i++
		}
	}
	return out
}

func isWordRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
}

// htmlStructure returns the sequence of tag names in the markup. Text and
// entities contribute nothing; a '<' not followed by a letter or '/' is
// treated as text, as browsers do.
func htmlStructure(s string) []string {
	var out []string
	rs := []rune(s)
	i, n := 0, len(rs)
	for i < n {
		if rs[i] != '<' {
			i++
			continue
		}
		j := i + 1
		if j < n && rs[j] == '/' {
			j++
		}
		start := j
		for j < n && (rs[j] >= 'a' && rs[j] <= 'z' || rs[j] >= 'A' && rs[j] <= 'Z') {
			j++
		}
		if j == start { // "<" followed by non-letter: text
			i++
			continue
		}
		name := strings.ToLower(string(rs[start:j]))
		for j < n && rs[j] != '>' {
			j++
		}
		if j < n {
			out = append(out, name)
			i = j + 1
		} else {
			i = n // unterminated tag: treated as text
		}
	}
	return out
}

// cmdStructure tokenises a shell-like command line: "a" per argument word
// (quoting and backslash escapes respected), and each unquoted
// metacharacter as its own token. "ERR" marks an unterminated quote.
func cmdStructure(s string) []string {
	const metas = ";|&$`()<>*?~#"
	var out []string
	rs := []rune(s)
	i, n := 0, len(rs)
	inWord := false
	flush := func() {
		if inWord {
			out = append(out, "a")
			inWord = false
		}
	}
	for i < n {
		r := rs[i]
		switch {
		case r == '\\' && i+1 < n:
			inWord = true
			i += 2
		case r == '\'' || r == '"':
			quote := r
			i++
			closed := false
			for i < n {
				if rs[i] == quote {
					closed = true
					i++
					break
				}
				i++
			}
			if !closed {
				flush()
				out = append(out, "ERR")
				return out
			}
			inWord = true
		case r == ' ' || r == '\t':
			flush()
			i++
		case strings.ContainsRune(metas, r):
			flush()
			out = append(out, string(r))
			i++
		default:
			inWord = true
			i++
		}
	}
	flush()
	return out
}

// pathBase is the virtual directory every path sink resolves against.
const pathBase = "/srv/data"

// pathStructure normalises pathBase + "/" + s and reports whether the
// result stays inside the base ("inside") or escapes it ("escape"). An
// absolute attacker path also escapes.
func pathStructure(s string) []string {
	s = strings.ReplaceAll(s, "\\", "/")
	var full string
	if strings.HasPrefix(s, "/") {
		full = s
	} else {
		full = pathBase + "/" + s
	}
	var parts []string
	for _, seg := range strings.Split(full, "/") {
		switch seg {
		case "", ".":
			// skip
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			} else {
				return []string{"escape"}
			}
		default:
			parts = append(parts, seg)
		}
	}
	resolved := "/" + strings.Join(parts, "/")
	if resolved == pathBase || strings.HasPrefix(resolved, pathBase+"/") {
		return []string{"inside"}
	}
	return []string{"escape"}
}

// StructureEqual compares two skeletons.
func StructureEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AttackPayloads returns the canonical attack payloads for a sink kind, in
// rough order of potency. These are the payloads the ground-truth oracle
// quantifies over; dynamic tools may use subsets (that is precisely how
// they lose recall).
func AttackPayloads(kind SinkKind) []string {
	switch kind {
	case SinkSQL:
		return []string{
			"' OR '1'='1",
			"'; DROP TABLE users--",
			"1 OR 1=1",
			"' UNION SELECT null--",
		}
	case SinkXPath:
		return []string{
			"' or '1'='1",
			"\" or \"1\"=\"1",
			"1 or 1=1",
		}
	case SinkHTML:
		return []string{
			"<script>alert(1)</script>",
			"<img src=x onerror=alert(1)>",
		}
	case SinkCmd:
		return []string{
			"; cat /etc/passwd",
			"| id",
			"`reboot`",
			"$(whoami)",
		}
	case SinkPath:
		return []string{
			"../../etc/passwd",
			"/etc/shadow",
			"..\\..\\windows\\system32",
		}
	default:
		return nil
	}
}

// BenignValues returns representative harmless parameter values used as
// the benign side of differential testing and as fillers in the
// ground-truth search. They cover the main validation classes (digits,
// alpha, filename-ish, free text).
func BenignValues() []string {
	return []string{"7", "alpha", "file1", "hello world"}
}

// GroundTruth is the oracle label of one sink.
type GroundTruth struct {
	SinkID int
	Kind   SinkKind
	// Vulnerable is true when some assignment in the oracle's search space
	// produces structural taint at this sink.
	Vulnerable bool
	// Witness, when vulnerable, is the parameter assignment of the request
	// in which the structural taint manifested (the last request of
	// Sequence).
	Witness Request
	// Sequence, when vulnerable, is the full request sequence that
	// demonstrates the vulnerability. For stateless services it has one
	// element; for stateful services (session store) it may take two — the
	// poisoning request and the triggering one.
	Sequence []Request
}

// maxOracleParams bounds the exhaustive assignment search for stateless
// services. Services with more parameters cannot be labelled exactly and
// are rejected, which keeps ground-truth quality a hard guarantee of the
// corpus rather than a best-effort property.
const maxOracleParams = 3

// maxStatefulParams bounds the search for stateful services, where the
// oracle enumerates request *pairs* and the space squares.
const maxStatefulParams = 1

// ProbeObserver receives one sink event of an oracle probe: the sink's
// ID, its declared kind and the structural-taint judgment of the value
// that reached it. Silent sinks are reported too — the oracle is
// white-box.
type ProbeObserver func(sinkID int, kind SinkKind, structuralTaint bool)

// ProbeFunc executes one oracle probe against a session store (nil for
// a fresh one) with the exact semantics of ExecuteInSession, and reports
// every sink event through obs, in program order. The oracle quantifies
// over executions through this seam so alternative engines (the bytecode
// VM in internal/svclang/compile) can drive the search without an
// import cycle, judging StructuralTaint on their internal value
// representation instead of materialising a Result per probe.
type ProbeFunc func(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error

// OracleTotals is a snapshot of the process-wide oracle search
// counters. Pruned counts the probe executions a search skipped
// relative to the exhaustive plan, so Probes+Pruned equals the
// exhaustive plan's probe count summed over every service analysed,
// whichever plan ran (AnalyzeProbingExhaustive contributes zero to
// Pruned).
type OracleTotals struct {
	// Probes is the number of request executions performed.
	Probes uint64
	// Pruned is the number of exhaustive-space request executions
	// skipped by influence analysis, value classing and early exit.
	Pruned uint64
	// EarlyExits counts plan groups stopped with planned requests
	// unexecuted because every sink of the group was already proven
	// vulnerable.
	EarlyExits uint64
}

var (
	oracleProbesTotal    atomic.Uint64
	oraclePrunedTotal    atomic.Uint64
	oracleEarlyExitTotal atomic.Uint64
)

// OracleTotalsSnapshot returns the current oracle search counters. The
// counters are process-wide and monotone; daemons export them through
// harness.RegisterProcessCounters.
func OracleTotalsSnapshot() OracleTotals {
	return OracleTotals{
		Probes:     oracleProbesTotal.Load(),
		Pruned:     oraclePrunedTotal.Load(),
		EarlyExits: oracleEarlyExitTotal.Load(),
	}
}

// AnalyzeProbing computes ground truth for every sink of the service
// over the oracle's value pool (benign values plus all canonical
// payloads), executing every probe through probe. Stateless services
// are labelled against every single-request parameter assignment,
// services using the session store against every two-request sequence.
// The search is influence-guided: a static pass (influence.go) proves
// most of that assignment space incapable of changing any verdict or
// witness and plans only the remainder, and each group of the plan
// stops once all of its sinks are proven vulnerable. When the plan
// would not execute fewer probes than the exhaustive plan, the
// exhaustive plan runs instead, with the same early exit. The result —
// labels, witnesses and sequences — is identical to
// AnalyzeProbingExhaustive on every valid service, which the
// differential and fuzz suites enforce.
func AnalyzeProbing(svc *Service, probe ProbeFunc) ([]GroundTruth, error) {
	return analyzeProbing(svc, probe, oracleModePruned)
}

// AnalyzeProbingExhaustive derives ground truth by running the
// exhaustive plan: every parameter assignment over the full value pool
// (two-request sequences for stateful services), with no influence
// analysis and no early exit. It is the reference the pruned search is
// differentially locked against, and the search behind
// internal/svclang/reference's engine.
func AnalyzeProbingExhaustive(svc *Service, probe ProbeFunc) ([]GroundTruth, error) {
	return analyzeProbing(svc, probe, oracleModeExhaustive)
}

// oracleMode selects the search strategy. oracleModePrunedNoExit keeps
// the influence pruning but disables early exit; the early-exit
// property test compares it against oracleModePruned.
type oracleMode int

const (
	oracleModePruned oracleMode = iota
	oracleModePrunedNoExit
	oracleModeExhaustive
)

func analyzeProbing(svc *Service, probe ProbeFunc, mode oracleMode) ([]GroundTruth, error) {
	if svc == nil {
		return nil, fmt.Errorf("svclang: nil service")
	}
	if probe == nil {
		return nil, fmt.Errorf("svclang: nil probe func")
	}
	if err := svc.Validate(); err != nil {
		return nil, err
	}
	if svc.UsesStore() && len(svc.Params) > maxStatefulParams {
		return nil, fmt.Errorf("svclang: %s: stateful services are limited to %d parameter(s) for exhaustive sequence labelling, got %d",
			svc.Name, maxStatefulParams, len(svc.Params))
	}
	if len(svc.Params) > maxOracleParams {
		return nil, fmt.Errorf("svclang: %s: %d parameters exceed the oracle limit of %d", svc.Name, len(svc.Params), maxOracleParams)
	}
	sinks := svc.Sinks()
	truths := make([]GroundTruth, len(sinks))
	for i, sk := range sinks {
		truths[i] = GroundTruth{SinkID: sk.ID, Kind: sk.Kind}
	}
	if len(sinks) == 0 {
		return truths, nil
	}
	byID := make(map[int]*GroundTruth, len(truths))
	for i := range truths {
		byID[truths[i].SinkID] = &truths[i]
	}

	pool := BenignValues()
	for _, k := range AllSinkKinds() {
		pool = append(pool, AttackPayloads(k)...)
	}

	// space is the exhaustive request-execution count over this pool;
	// whatever the search does not execute is recorded as pruned.
	plan := exhaustivePlan(svc, len(pool))
	space := plan.planned()
	earlyExit := mode == oracleModePruned
	if mode != oracleModeExhaustive {
		// Influence groups can overlap enough that enumerating them
		// separately costs at least the exhaustive space (several sinks
		// with distinct but large influence sets). The exhaustive plan
		// then runs instead, so the pruned search never costs more than
		// the exhaustive one and executed+pruned == space holds.
		if pruned := buildOraclePlan(svc, pool); pruned.planned() < space {
			plan = pruned
		}
	}
	executed, err := sweep(svc, plan, pool, probe, byID, earlyExit)
	oracleProbesTotal.Add(executed)
	oraclePrunedTotal.Add(space - executed)
	if err != nil {
		return nil, err
	}
	return truths, nil
}

// oraclePlan is a search plan for one service: the groups sweep
// enumerates. buildOraclePlan (influence.go) makes the pruned plan,
// exhaustivePlan the reference one.
type oraclePlan struct {
	stateful bool
	// groups are the disjoint sink groups to enumerate; sinks absent
	// from every group are statically safe and receive zero probes.
	groups []oracleGroup
}

// oracleGroup is one group of a plan: the sinks it decides, the virtual
// parameters it enumerates and the kept pool indices per parameter.
type oracleGroup struct {
	sinkIDs []int
	params  []int   // ascending virtual-parameter indices
	keeps   [][]int // kept pool indices (ascending) per entry of params
}

// planned is the number of request executions the plan's groups
// perform if no early exit fires.
func (p *oraclePlan) planned() uint64 {
	var total uint64
	for gi := range p.groups {
		total += p.groups[gi].planned(p.stateful)
	}
	return total
}

// planned is the group's request-execution count without early exit:
// one request per assignment, two for a stateful pair.
func (g *oracleGroup) planned(stateful bool) uint64 {
	n := uint64(1)
	if stateful {
		n = 2
	}
	for _, keep := range g.keeps {
		n *= uint64(len(keep))
	}
	return n
}

// next advances the odometer idx over the group's keep lists and
// reports false once it wraps. Stateless groups vary their first
// parameter fastest; stateful groups their last, so the poisoning
// value (virtual parameter 0) stays outermost.
func (g *oracleGroup) next(idx []int, stateful bool) bool {
	for k := range idx {
		j := k
		if stateful {
			j = len(idx) - 1 - k
		}
		idx[j]++
		if idx[j] < len(g.keeps[j]) {
			return true
		}
		idx[j] = 0
	}
	return false
}

// exhaustivePlan is the reference search as a plan: one group holding
// every sink, enumerating every virtual parameter over the whole pool.
func exhaustivePlan(svc *Service, poolSize int) *oraclePlan {
	stateful := svc.UsesStore()
	g := oracleGroup{keeps: make([][]int, virtualParams(svc, stateful))}
	for _, sk := range svc.Sinks() {
		g.sinkIDs = append(g.sinkIDs, sk.ID)
	}
	all := allIndices(poolSize)
	for p := range g.keeps {
		g.params = append(g.params, p)
		g.keeps[p] = all
	}
	return &oraclePlan{stateful: stateful, groups: []oracleGroup{g}}
}

// virtualParams is the number of virtual parameters of svc:
// len(svc.Params) for stateless services, 2 for stateful ones (the
// request-1 and request-2 values of the single parameter).
func virtualParams(svc *Service, stateful bool) int {
	if stateful {
		return 2
	}
	return len(svc.Params)
}

// sweep runs every group of plan and returns the number of requests it
// executed. A group enumerates the cross product of its kept pool
// indices (an odometer), every virtual parameter it does not enumerate
// pinned to pool[0], and watches only its own sinks. A stateless
// assignment is one request, its first parameter varying fastest. A
// stateful assignment (v1, v2) is a poisoning request with the
// parameter at v1 and a triggering request at v2 on one fresh session
// store, v1 outermost. The request maps are reused; a sink's first
// vulnerable event snapshots the sequence in flight as its witness.
// With earlyExit a group stops as soon as all of its sinks are proven
// vulnerable, between the two requests of a pair if need be: later
// assignments could only produce later witnesses.
func sweep(svc *Service, plan *oraclePlan, pool []string, probe ProbeFunc,
	byID map[int]*GroundTruth, earlyExit bool) (uint64, error) {
	var (
		executed  uint64
		seq       []Request
		watch     map[int]bool
		undecided int
	)
	observer := func(sinkID int, _ SinkKind, structuralTaint bool) {
		if !structuralTaint || !watch[sinkID] {
			return
		}
		gt := byID[sinkID]
		if gt.Vulnerable {
			return
		}
		gt.Vulnerable = true
		gt.Sequence = cloneSequence(seq)
		gt.Witness = gt.Sequence[len(gt.Sequence)-1]
		undecided--
	}
	reqs := []Request{make(Request, len(svc.Params))}
	if plan.stateful {
		reqs = append(reqs, make(Request, len(svc.Params)))
	}
	vals := make([]int, virtualParams(svc, plan.stateful))
	for gi := range plan.groups {
		g := &plan.groups[gi]
		watch = make(map[int]bool, len(g.sinkIDs))
		for _, id := range g.sinkIDs {
			watch[id] = true
		}
		undecided = len(g.sinkIDs)
		clear(vals)
		idx := make([]int, len(g.params))
		before := executed
	assignments:
		for {
			for j, p := range g.params {
				vals[p] = g.keeps[j][idx[j]]
			}
			var store *SessionStore
			if plan.stateful {
				store = NewSessionStore()
			}
			for k, req := range reqs {
				for p, name := range svc.Params {
					if plan.stateful {
						p = k
					}
					req[name] = pool[vals[p]]
				}
				seq = reqs[:k+1]
				executed++
				if err := probe(svc, req, store, observer); err != nil {
					return executed, err
				}
				if earlyExit && undecided == 0 {
					break assignments
				}
			}
			if !g.next(idx, plan.stateful) {
				break
			}
		}
		if executed-before < g.planned(plan.stateful) {
			oracleEarlyExitTotal.Add(1)
		}
	}
	return executed, nil
}

// CloneGroundTruths deep-copies a ground-truth slice, witnesses and
// sequences included. Consumers that memoise oracle results (the
// content-addressed cache in internal/svclang/compile) hand out clones
// so no caller can corrupt the cached truth through a shared witness
// map.
func CloneGroundTruths(truths []GroundTruth) []GroundTruth {
	if truths == nil {
		return nil
	}
	out := make([]GroundTruth, len(truths))
	for i, gt := range truths {
		out[i] = gt
		if gt.Witness != nil {
			out[i].Witness = cloneRequest(gt.Witness)
		}
		if gt.Sequence != nil {
			out[i].Sequence = cloneSequence(gt.Sequence)
		}
	}
	return out
}

func cloneSequence(seq []Request) []Request {
	out := make([]Request, len(seq))
	for i, r := range seq {
		out[i] = cloneRequest(r)
	}
	return out
}

func cloneRequest(r Request) Request {
	out := make(Request, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}
