// Package lib is the fixture's library.
package lib

// Used is called from main.
func Used() { helper() }

func helper() {}

// FromFacade is called from the facade.
func FromFacade() int { return 2 }

// FromInit is called from a command's init.
func FromInit() {}

// StoredValue is only ever stored in a variable, then called through
// it.
func StoredValue() {}

// byVar is reached through a package-level var initializer.
func byVar() int { return 3 }

var answer = byVar()

func init() { initOnly() }

// initOnly is called from this package's init.
func initOnly() {}

// PerfOnly is referenced only by the _perfbench harness.
func PerfOnly() {}

// Never is called by nothing.
func Never() { fromDead() } // want `lib\.Never is unreachable`

// fromDead is called only from dead code.
func fromDead() {} // want `lib\.fromDead is unreachable`

// OnlyTest is called only from lib_test.go.
func OnlyTest() {} // want `lib\.OnlyTest is unreachable`

// Kept is unreached but kept on purpose.
//
//lint:allow deadcode fixture exercises the kept-function path
func Kept() { keptHelper() }

// keptHelper is reached through Kept, so it needs no directive.
func keptHelper() {}

// Shape is an interface main calls through.
type Shape interface{ Area() float64 }

// Square satisfies Shape.
type Square struct{ Side float64 }

// Area satisfies Shape; main calls it only through the interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is a method of a live type that no one calls.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `lib\.Square\.Perimeter is unreachable`

// Failure is used as an error.
type Failure struct{}

// Error satisfies error for a live type.
func (Failure) Error() string { return "failure" }

// Orphan is never used, so its Error method is dead even though it
// satisfies error.
type Orphan struct{}

func (Orphan) Error() string { return "orphan" } // want `lib\.Orphan\.Error is unreachable`

// Aliased is re-exported by the facade under an alias.
type Aliased struct{}

// Error keeps the aliased type an error: the alias makes it live.
func (Aliased) Error() string { return "aliased" }

// Extra is a method the alias does not promise.
func (Aliased) Extra() {} // want `lib\.Aliased\.Extra is unreachable`
