// Command engines exercises compiledexec's test-only rule for the
// reference engine: production code anywhere in the module, not just on
// the execution path, must construct the production engine.
package main

import "example.com/golden/internal/svclang/compile"

func main() {
	_ = compile.NewEngine()
	_ = compile.NewReferenceEngine() // want `package example.com/golden/cmd/engines calls compile.NewReferenceEngine outside a test`
}
