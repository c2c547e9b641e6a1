// Package errcmp seeds deliberate sentinel-comparison violations for
// the distavet errcmp analyzer golden test. The go tool never builds
// this tree (it lives under testdata/); distavet's loader does.
package errcmp

import (
	"errors"
	"fmt"
	"io"

	"dista/internal/taintmap"
)

// Package sentinels following the tree's naming convention.
var (
	ErrClosed   = errors.New("closed")
	errInternal = errors.New("internal")
	ErrWrapped  = fmt.Errorf("outer: %w", ErrClosed)
)

// Errand is package-level and error-typed but not sentinel-named, so
// comparisons against it are out of scope.
var Errand error = errors.New("not a sentinel by naming convention")

func bad(err error) int {
	if err == ErrClosed { // want "sentinel error ErrClosed compared with =="
		return 1
	}
	if ErrClosed != err { // want "compared with !="
		return 2
	}
	if err == errInternal { // want "sentinel error errInternal"
		return 3
	}
	if err == ErrWrapped { // want "sentinel error ErrWrapped"
		return 4
	}
	switch err {
	case ErrClosed: // want "switch case"
		return 5
	case nil:
		return 6
	}
	return 0
}

// Cross-package sentinels are in scope too: the overload/budget errors
// arrive wrapped (serverErr re-typing, %w chains), so identity checks
// silently never match.
func badCrossPackage(err error) int {
	if err == taintmap.ErrOverloaded { // want "sentinel error ErrOverloaded compared with =="
		return 1
	}
	if taintmap.ErrDegraded != err { // want "sentinel error ErrDegraded compared with !="
		return 2
	}
	switch err {
	case taintmap.ErrOverloaded: // want "switch case"
		return 3
	case taintmap.ErrDeadlineExceeded: // want "switch case"
		return 4
	}
	return 0
}

// badAs aims errors.As at the sentinels themselves. The wire decode
// path re-types the server's overload marker into a fresh %w wrap, so
// As(err, &ErrOverloaded) "matches" every such reply — its target is
// *error, which accepts anything — and assigns the wrap into the
// package sentinel, corrupting every later comparison against it.
func badAs(err error) int {
	if errors.As(err, &taintmap.ErrOverloaded) { // want "matches any error and overwrites ErrOverloaded"
		return 1
	}
	if errors.As(err, &ErrClosed) { // want "overwrites ErrClosed"
		return 2
	}
	return 0
}

// goodAs uses As for what it is for: extracting a concrete typed error
// into a local target.
type codeError struct{ code int }

func (e *codeError) Error() string { return "code" }

func goodAs(err error) int {
	var ce *codeError
	if errors.As(err, &ce) {
		return ce.code
	}
	var plain error
	if errors.As(err, &plain) { // a local *error target is odd but mutates nothing shared
		return 1
	}
	return 0
}

func goodCrossPackage(err error) bool {
	return errors.Is(err, taintmap.ErrOverloaded) ||
		errors.Is(err, taintmap.ErrDegraded) ||
		errors.Is(err, taintmap.ErrDeadlineExceeded)
}

func good(err error) bool {
	if errors.Is(err, ErrClosed) {
		return true
	}
	if err == io.EOF { // io sentinels are returned unwrapped by contract
		return true
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if err == nil || nil != err {
		return false
	}
	if err == Errand {
		return true
	}
	var a, b error
	return a == b // comparing two plain error values is fine
}

func suppressed(err error) bool {
	//lint:ignore distavet/errcmp golden test exercises a justified identity check
	return err == ErrClosed
}
