// Package noexport imports a path that has no export data.
package noexport

import "nosuch/pkg"

var _ = pkg.X
