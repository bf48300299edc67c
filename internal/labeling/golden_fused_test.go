//go:build !amd64 || amd64.v2

package labeling_test

// goldenUnfused is false where the compiler may fuse x*y+z into an FMA
// (or, at GOAMD64=v2, where the recorded setting is not in use).
const goldenUnfused = false
