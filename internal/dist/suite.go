package dist

// Tool suites cross the wire by NAME, not by value: detector behaviour is
// code, and the only way to ship code in a stdlib-only system is to not
// ship it — both sides resolve the name through a process-local registry
// and rely on determinism for the instances to behave identically.
// "standard" (detectors.StandardSuite) is always registered; tests
// register fault-wrapped suites under their own names.

import (
	"fmt"
	"sort"
	"sync"

	"github.com/dsn2015/vdbench/internal/detectors"
)

var (
	suiteMu  sync.Mutex
	suiteReg = map[string]func() ([]detectors.Tool, error){}
)

func init() {
	if err := RegisterSuite("standard", detectors.StandardSuite); err != nil {
		panic(err)
	}
}

// RegisterSuite makes a named tool suite resolvable by BuildSuite in this
// process. The builder must be deterministic: every process that resolves
// the name must construct tools with identical behaviour, or the
// byte-identity guarantee is forfeit. Registering a name twice is an
// error — silently replacing a suite mid-campaign would be a determinism
// hazard.
func RegisterSuite(name string, build func() ([]detectors.Tool, error)) error {
	if name == "" {
		return fmt.Errorf("dist: empty suite name")
	}
	if build == nil {
		return fmt.Errorf("dist: nil suite builder for %q", name)
	}
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if _, ok := suiteReg[name]; ok {
		return fmt.Errorf("dist: suite %q already registered", name)
	}
	suiteReg[name] = build
	return nil
}

// BuildSuite constructs a fresh instance of the named suite. Each call
// builds new tool instances — tools may carry per-campaign state (compile
// caches, fault injectors), so instances are never shared across
// campaigns.
func BuildSuite(name string) ([]detectors.Tool, error) {
	build, err := lookupSuite(name)
	if err != nil {
		return nil, err
	}
	tools, err := build()
	if err != nil {
		return nil, fmt.Errorf("dist: building suite %q: %w", name, err)
	}
	if len(tools) == 0 {
		return nil, fmt.Errorf("dist: suite %q built no tools", name)
	}
	return tools, nil
}

// lookupSuite returns the named suite's builder without building it.
func lookupSuite(name string) (func() ([]detectors.Tool, error), error) {
	suiteMu.Lock()
	build, ok := suiteReg[name]
	suiteMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: unknown suite %q (registered: %v)", name, Suites())
	}
	return build, nil
}

// Suites lists the registered suite names in sorted order.
func Suites() []string {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	names := make([]string, 0, len(suiteReg))
	for name := range suiteReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
