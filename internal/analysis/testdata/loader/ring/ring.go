// Package ring imports a standard package that no package of the
// module imports, so its types can come only from export data that the
// load itself lists.
package ring

import "container/ring"

// Len is the length of a fresh ring of n elements.
func Len(n int) int { return ring.New(n).Len() }
