// Command tool is the fixture's binary.
package main

import "deadfix/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
	var err error = lib.Failure{}
	_ = err
	f := lib.StoredValue // a function used as a value is reached
	f()
}

func init() {
	lib.FromInit()
}
