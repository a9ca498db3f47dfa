// Command reach is the reachability test's fixture: one function per
// rule, named after how it is reached.
package main

import (
	"fmt"
	"net/http"

	"lintfix/reach/shapes"
)

type square struct{ side float64 }

// Area is reached only through the interface call in shapes.Total.
func (s square) Area() float64 { return s.side * s.side }

func apply(f func() int) int { return f() }

// viaValue is reached only as a func value.
func viaValue() int { return 1 }

var registry = map[string]func() string{"x": fromVarInit}

// fromVarInit is reached only from a package-level var initializer.
func fromVarInit() string { return "var" }

var fromInit string

func init() { fromInit = fromInitFunc() }

// fromInitFunc is reached only from an init function.
func fromInitFunc() string { return "init" }

type label struct{ s string }

// String is called only by fmt.
func (l label) String() string { return l.s }

type failure struct{}

// Error is called only by fmt, through the error interface.
func (failure) Error() string { return "failure" }

type handler struct{}

// ServeHTTP is called only by net/http.
func (handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

// onlyTested is called only from main_test.go.
func onlyTested() int { return 2 }

// uncalled is reached by nothing.
func uncalled() {}

type unusedLabel struct{}

// String satisfies fmt.Stringer, but nothing reaches its type.
func (unusedLabel) String() string { return "unused" }

func main() {
	var err error = failure{}
	fmt.Println(shapes.Total([]shapes.Shape{square{2}}), apply(viaValue), registry["x"](), fromInit, label{"l"}, err)
	http.Handle("/", handler{})
}
