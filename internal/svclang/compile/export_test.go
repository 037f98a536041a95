package compile

import "github.com/dsn2015/vdbench/internal/svclang"

// VMProbe exposes a per-probe VM execution on an engine, so the
// external matrix tests can run the exhaustive search on the VM, the
// one (execution, search) pairing no engine offers.
func VMProbe(e *Engine) svclang.ProbeFunc {
	return func(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, obs svclang.ProbeObserver) error {
		p, err := e.Program(svc, svc.Digest())
		if err != nil {
			return err
		}
		a := e.pool.Get().(*arena)
		p.run(a, req, store, nil, obs)
		e.pool.Put(a)
		return nil
	}
}
