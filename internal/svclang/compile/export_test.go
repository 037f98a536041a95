package compile

import "github.com/dsn2015/vdbench/internal/svclang"

// VMProbe exposes an engine's streaming oracle probe, so the external
// matrix tests can run the exhaustive search on the VM, the one
// (execution, search) pairing no engine offers.
func VMProbe(e *Engine) svclang.ProbeFunc { return e.probe }
