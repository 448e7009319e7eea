// Package fixture exercises the seedsplit analyzer: RNG construction
// inside parallel callbacks must derive its seed from par.SplitSeed.
package fixture

import (
	"math/rand"

	"repro/internal/par"
)

func adHocSeed(base int64, out []float64) {
	par.Map(4, len(out), func(i int) {
		rng := rand.New(rand.NewSource(base + int64(i))) // want `must derive its seed from par\.SplitSeed`
		out[i] = rng.Float64()
	})
}

func splitSeed(base int64, out []float64) {
	par.Map(4, len(out), func(i int) {
		rng := rand.New(rand.NewSource(par.SplitSeed(base, i)))
		out[i] = rng.Float64()
	})
}

func allowed(base int64, out []float64) {
	par.Map(4, len(out), func(i int) {
		//lint:allow seedsplit fixture exercises the suppression path
		rng := rand.New(rand.NewSource(base))
		out[i] = rng.Float64()
	})
}
