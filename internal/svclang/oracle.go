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

// ExecFunc executes one request of a service against a session store
// (nil store = fresh store), with the exact semantics of
// ExecuteInSession. The oracle quantifies over executions through this
// seam so alternative engines (the bytecode VM in
// internal/svclang/compile) can drive the exhaustive search without an
// import cycle; the differential test suite pins engine equivalence.
type ExecFunc func(svc *Service, req Request, store *SessionStore) (Result, error)

// Analyze computes ground truth for every sink of the service over the
// oracle's value pool (benign values plus all canonical payloads).
// Stateless services are labelled against every single-request
// parameter assignment, services using the session store against every
// two-request sequence — but the search is influence-guided (see
// influence.go): assignments that provably cannot change any sink's
// verdict or first witness are skipped, so the labels and witnesses are
// exactly those of the exhaustive enumeration at a fraction of its
// cost. AnalyzeProbingExhaustive runs the unpruned search for
// differential validation. Analyze uses the reference tree-walking
// interpreter; AnalyzeWith runs the search through a caller-supplied
// engine.
func Analyze(svc *Service) ([]GroundTruth, error) {
	return AnalyzeWith(svc, ExecuteInSession)
}

// ProbeObserver receives one sink event of an oracle probe: the sink's
// ID, its declared kind and the structural-taint judgment of the value
// that reached it. Silent sinks are reported too — the oracle is
// white-box.
type ProbeObserver func(sinkID int, kind SinkKind, structuralTaint bool)

// ProbeFunc executes one oracle probe against a session store (nil for
// a fresh one) and reports every sink event through obs, in program
// order. It is the streaming counterpart of ExecFunc: an engine that
// can judge StructuralTaint on its internal value representation avoids
// materialising a Result per probe, which dominates the cost of ground
// truth derivation.
type ProbeFunc func(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error

// AnalyzeWith is Analyze with the execution engine supplied by the
// caller. The engine must reproduce ExecuteInSession semantics exactly
// (taint provenance included) for the resulting labels to be ground
// truth; passing ExecuteInSession itself recovers Analyze. Like
// Analyze, the search is influence-guided; the probes it skips are
// exactly those that could not have changed the outcome.
func AnalyzeWith(svc *Service, exec ExecFunc) ([]GroundTruth, error) {
	if exec == nil {
		return nil, fmt.Errorf("svclang: nil exec func")
	}
	return AnalyzeProbing(svc, func(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error {
		res, err := exec(svc, req, store)
		if err != nil {
			return err
		}
		for _, ev := range res.Events {
			obs(ev.SinkID, ev.Kind, StructuralTaint(ev.Kind, ev.Value))
		}
		return nil
	})
}

// OracleTotals is a snapshot of the process-wide oracle search
// counters. Pruned counts probe executions the influence-guided search
// skipped relative to the exhaustive assignment space, so
// Probes+Pruned equals the exhaustive probe count of every service
// analysed (by either search mode — the exhaustive search contributes
// zero to Pruned).
type OracleTotals struct {
	// Probes is the number of request executions performed.
	Probes uint64
	// Pruned is the number of exhaustive-space request executions
	// skipped by influence analysis, value classing and early exit.
	Pruned uint64
	// EarlyExits counts enumerations stopped with kept assignments
	// unexecuted because every watched sink was already proven
	// vulnerable.
	EarlyExits uint64
}

var (
	oracleProbesTotal    atomic.Uint64
	oraclePrunedTotal    atomic.Uint64
	oracleEarlyExitTotal atomic.Uint64
)

// OracleTotalsSnapshot returns the current oracle search counters. The
// counters are process-wide and monotone; consumers that need
// per-campaign numbers fold deltas, as internal/service does for the
// other engine counters.
func OracleTotalsSnapshot() OracleTotals {
	return OracleTotals{
		Probes:     oracleProbesTotal.Load(),
		Pruned:     oraclePrunedTotal.Load(),
		EarlyExits: oracleEarlyExitTotal.Load(),
	}
}

// AnalyzeProbing derives ground truth through a streaming probe
// function, with sink events judged in place of being materialised. The
// search is influence-guided: a static pass (influence.go) proves most
// of the exhaustive assignment space incapable of changing any verdict
// or witness, and only the remainder is executed. The result — labels,
// witnesses and sequences — is identical to AnalyzeProbingExhaustive on
// every valid service, which the differential and fuzz suites enforce.
func AnalyzeProbing(svc *Service, probe ProbeFunc) ([]GroundTruth, error) {
	return analyzeProbing(svc, probe, oracleModePruned)
}

// AnalyzeProbingExhaustive derives ground truth by enumerating the full
// value pool over every parameter assignment (two-request sequences for
// stateful services) with no pruning and no early exit. It is the
// reference the pruned search is differentially locked against, and the
// search behind compile.NewReferenceEngine.
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
	stateful := svc.UsesStore()
	if stateful && len(svc.Params) > maxStatefulParams {
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
	space := uint64(1)
	if stateful {
		space = 2 * uint64(len(pool)) * uint64(len(pool))
	} else {
		for range svc.Params {
			space *= uint64(len(pool))
		}
	}
	var executed uint64
	defer func() {
		oracleProbesTotal.Add(executed)
		if space > executed {
			oraclePrunedTotal.Add(space - executed)
		}
	}()

	// curSeq is the request sequence of the probe in flight; the observer
	// clones it lazily, only when a sink first proves vulnerable. In the
	// pruned search the observer additionally restricts itself to the
	// sinks of the influence group being enumerated (watch) and counts
	// down the group's undecided sinks for early exit.
	var curSeq []Request
	var watch map[int]bool
	undecided := 0
	observer := func(sinkID int, kind SinkKind, structuralTaint bool) {
		if watch != nil && !watch[sinkID] {
			return
		}
		gt := byID[sinkID]
		if gt == nil || gt.Vulnerable || !structuralTaint {
			return
		}
		gt.Vulnerable = true
		gt.Sequence = cloneSequence(curSeq)
		gt.Witness = gt.Sequence[len(gt.Sequence)-1]
		undecided--
	}
	run := func(req Request, store *SessionStore, seq []Request) error {
		curSeq = seq
		executed++
		return probe(svc, req, store, observer)
	}

	if mode == oracleModeExhaustive {
		var err error
		if stateful {
			err = analyzeStateful(svc, pool, run, nil)
		} else {
			err = analyzeStateless(svc, pool, run, nil)
		}
		if err != nil {
			return nil, err
		}
		return truths, nil
	}

	plan := buildOraclePlan(svc, pool)
	earlyExit := mode == oracleModePruned
	var err error
	if plan.planned() >= space {
		// Influence groups overlap enough that enumerating them
		// separately would cost at least the exhaustive space (possible
		// when several sinks have distinct but large influence sets).
		// Fall back to the single exhaustive sweep so the pruned search
		// is never more expensive than the exhaustive one and the
		// accounting invariant executed+pruned == space holds. Early
		// exit still applies: once every sink is vulnerable the observer
		// is inert and stopping is output-identical.
		undecided = len(truths)
		var stop *int
		if earlyExit {
			stop = &undecided
		}
		before := executed
		if stateful {
			err = analyzeStateful(svc, pool, run, stop)
		} else {
			err = analyzeStateless(svc, pool, run, stop)
		}
		if err == nil && executed-before < space {
			oracleEarlyExitTotal.Add(1)
		}
	} else if stateful {
		err = runPrunedStateful(svc, plan, pool, run, &watch, &undecided, earlyExit)
	} else {
		err = runPrunedStateless(svc, plan, pool, run, &watch, &undecided, earlyExit)
	}
	if err != nil {
		return nil, err
	}
	return truths, nil
}

// analyzeStateless enumerates the full cross product of pool values
// over parameters. The request map is reused across the odometer — its
// keys never change, and the observer's cloneSequence snapshots it
// whenever a witness is recorded. A non-nil stop enables early exit:
// the sweep halts once *stop reaches zero.
func analyzeStateless(svc *Service, pool []string, run func(req Request, store *SessionStore, seq []Request) error, stop *int) error {
	assignment := make([]int, len(svc.Params))
	req := make(Request, len(svc.Params))
	seq := []Request{req}
	for {
		for i, p := range svc.Params {
			req[p] = pool[assignment[i]]
		}
		if err := run(req, nil, seq); err != nil {
			return err
		}
		if stop != nil && *stop == 0 {
			return nil
		}
		// Advance the odometer.
		i := 0
		for ; i < len(assignment); i++ {
			assignment[i]++
			if assignment[i] < len(pool) {
				break
			}
			assignment[i] = 0
		}
		if i == len(assignment) {
			break
		}
	}
	return nil
}

// runPrunedStateless executes the plan's influence groups: one odometer
// per group over its kept pool values, every other parameter pinned to
// the first benign value (which is what the exhaustive first witness
// assigns to parameters that cannot affect the outcome). A group stops
// as soon as all of its sinks are proven vulnerable.
func runPrunedStateless(svc *Service, plan *oraclePlan, pool []string,
	run func(req Request, store *SessionStore, seq []Request) error,
	watch *map[int]bool, undecided *int, earlyExit bool) error {
	req := make(Request, len(svc.Params))
	seq := []Request{req}
	for gi := range plan.groups {
		g := &plan.groups[gi]
		*watch = make(map[int]bool, len(g.sinkIDs))
		for _, id := range g.sinkIDs {
			(*watch)[id] = true
		}
		*undecided = len(g.sinkIDs)
		for _, p := range svc.Params {
			req[p] = pool[0]
		}
		planned := uint64(1)
		for _, keep := range g.keeps {
			planned *= uint64(len(keep))
		}
		var groupExecuted uint64
		idx := make([]int, len(g.params))
		for {
			for j, pi := range g.params {
				req[svc.Params[pi]] = pool[g.keeps[j][idx[j]]]
			}
			if err := run(req, nil, seq); err != nil {
				return err
			}
			groupExecuted++
			if earlyExit && *undecided == 0 {
				break
			}
			j := 0
			for ; j < len(idx); j++ {
				idx[j]++
				if idx[j] < len(g.keeps[j]) {
					break
				}
				idx[j] = 0
			}
			if j == len(idx) {
				break
			}
		}
		if groupExecuted < planned {
			oracleEarlyExitTotal.Add(1)
		}
	}
	return nil
}

// runPrunedStateful is runPrunedStateless for two-request sequences:
// groups range over the virtual parameters v1 (the parameter's value in
// the poisoning request) and v2 (its value in the triggering request),
// and a pair's second request is skipped once the group is decided.
func runPrunedStateful(svc *Service, plan *oraclePlan, pool []string,
	run func(req Request, store *SessionStore, seq []Request) error,
	watch *map[int]bool, undecided *int, earlyExit bool) error {
	r1, r2 := Request{}, Request{}
	seq1, seq2 := []Request{r1}, []Request{r1, r2}
	fill := func(req Request, v string) {
		for _, p := range svc.Params {
			req[p] = v
		}
	}
	for gi := range plan.groups {
		g := &plan.groups[gi]
		*watch = make(map[int]bool, len(g.sinkIDs))
		for _, id := range g.sinkIDs {
			(*watch)[id] = true
		}
		*undecided = len(g.sinkIDs)
		keeps1, keeps2 := []int{0}, []int{0}
		for j, p := range g.params {
			if p == 0 {
				keeps1 = g.keeps[j]
			} else {
				keeps2 = g.keeps[j]
			}
		}
		planned := 2 * uint64(len(keeps1)) * uint64(len(keeps2))
		var groupExecuted uint64
	pairs:
		for _, i1 := range keeps1 {
			for _, i2 := range keeps2 {
				store := NewSessionStore()
				fill(r1, pool[i1])
				if err := run(r1, store, seq1); err != nil {
					return err
				}
				groupExecuted++
				if earlyExit && *undecided == 0 {
					break pairs
				}
				fill(r2, pool[i2])
				if err := run(r2, store, seq2); err != nil {
					return err
				}
				groupExecuted++
				if earlyExit && *undecided == 0 {
					break pairs
				}
			}
		}
		if groupExecuted < planned {
			oracleEarlyExitTotal.Add(1)
		}
	}
	return nil
}

// analyzeStateful enumerates every two-request sequence over the pool,
// sharing a session store within each sequence. Single-request exploits
// are covered by the first element of each pair. Like the stateless
// odometer, the two request maps are reused across pairs; witnesses are
// snapshotted by the observer. A non-nil stop enables early exit.
func analyzeStateful(svc *Service, pool []string, run func(req Request, store *SessionStore, seq []Request) error, stop *int) error {
	fill := func(req Request, v string) {
		for _, p := range svc.Params {
			req[p] = v
		}
	}
	r1, r2 := Request{}, Request{}
	seq1, seq2 := []Request{r1}, []Request{r1, r2}
	for _, v1 := range pool {
		for _, v2 := range pool {
			store := NewSessionStore()
			fill(r1, v1)
			if err := run(r1, store, seq1); err != nil {
				return err
			}
			if stop != nil && *stop == 0 {
				return nil
			}
			fill(r2, v2)
			if err := run(r2, store, seq2); err != nil {
				return err
			}
			if stop != nil && *stop == 0 {
				return nil
			}
		}
	}
	return nil
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
