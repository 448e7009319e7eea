package lib

import "testing"

func TestOnlyTest(t *testing.T) { OnlyTest() }
