package critic_test

import (
	"fmt"

	"repro/internal/critic"
)

func ExampleJaccard() {
	fmt.Printf("%.2f\n", critic.Jaccard("new york city", "new york city"))
	fmt.Println(critic.Jaccard("nyc", "boston") < critic.Jaccard("new york", "new york city"))
	// Output:
	// 1.00
	// true
}
