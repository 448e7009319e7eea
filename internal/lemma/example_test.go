package lemma_test

import (
	"fmt"

	"repro/internal/lemma"
)

func ExampleLemmatize() {
	for _, w := range []string{"are", "cars", "car's", "stayed", "oldest"} {
		fmt.Println(lemma.Lemmatize(w))
	}
	// Output:
	// be
	// car
	// car
	// stay
	// old
}
