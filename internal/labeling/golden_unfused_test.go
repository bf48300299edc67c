//go:build amd64 && !amd64.v2

package labeling_test

// goldenUnfused reports that the compiler keeps x*y+z as two rounded
// operations (amd64 at GOAMD64=v1), the setting the golden fits were
// recorded under.
const goldenUnfused = true
