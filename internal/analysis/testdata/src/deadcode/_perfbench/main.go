// Command perfbench stands for the benchmark harness, a module of its
// own: every symbol it references is a root.
package main

import "deadfix/lib"

func main() { lib.PerfOnly() }
