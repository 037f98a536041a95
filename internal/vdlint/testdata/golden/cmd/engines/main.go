// Command engines exercises compiledexec's test-only rule for the
// reference implementation: production code anywhere in the module, not
// just on the execution path, must construct the production engine and
// stay off the interpreter.
package main

import (
	"example.com/golden/internal/svclang"
	"example.com/golden/internal/svclang/compile"
	"example.com/golden/internal/svclang/reference" // want `package example.com/golden/cmd/engines imports internal/svclang/reference outside a test`
)

func main() {
	_ = compile.NewEngine()
	_ = compile.NewReferenceEngine(nil)       // want `package example.com/golden/cmd/engines calls compile.NewReferenceEngine outside a test`
	_, _ = svclang.ExecuteInSession(nil, nil) // want `package example.com/golden/cmd/engines calls svclang.ExecuteInSession outside a test`
	_ = reference.NewEngine()
}
