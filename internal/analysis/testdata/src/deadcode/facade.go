// Package deadfix is the deadcode fixture's facade: like the module
// root package it stands for, its exported API is a root.
package deadfix

import "deadfix/lib"

// Export is a facade function; what it calls is reached.
func Export() int { return lib.FromFacade() }

// Box is a type the facade declares.
type Box struct{}

// Open is an exported method of a facade type: part of the API.
func (Box) Open() int { return 1 }

// seal is unexported and never called.
func (Box) seal() {} // want `deadfix\.Box\.seal is unreachable`

// Alias re-exports a library type; that keeps the type live, not every
// method of it.
type Alias = lib.Aliased
