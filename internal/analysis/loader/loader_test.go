package loader

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

var testdata = filepath.Join("..", "testdata", "loader")

func newProgram(t *testing.T) *Program {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(root, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStdFromExportData loads a package whose one import, container/ring,
// is outside the module's import closure: the load lists it and
// type-checks the package against its export data.
func TestStdFromExportData(t *testing.T) {
	p := newProgram(t)
	pkg, err := p.LoadDir(filepath.Join(testdata, "ring"))
	if err != nil {
		t.Fatal(err)
	}
	if p.exports["container/ring"] == "" {
		t.Fatal("container/ring was not listed with export data")
	}
	imports := pkg.Types.Imports()
	if len(imports) != 1 || imports[0].Path() != "container/ring" {
		t.Fatalf("imports = %v, want [container/ring]", imports)
	}
	if _, ok := imports[0].Scope().Lookup("Ring").(*types.TypeName); !ok {
		t.Fatal("container/ring has no type Ring")
	}
}

// TestNoExportDataIsAnError pins that a path without export data fails
// the load with an error that names it: a standard package the load did
// not list is not read from source instead, and a path that does not
// exist fails the same way.
func TestNoExportDataIsAnError(t *testing.T) {
	p := newProgram(t)
	if _, err := p.importPkg("container/ring"); err == nil ||
		!strings.Contains(err.Error(), "no export data for container/ring") {
		t.Fatalf("unlisted container/ring: err = %v, want no export data for it", err)
	}
	_, err := p.LoadDir(filepath.Join(testdata, "noexport"))
	if err == nil || !strings.Contains(err.Error(), "no export data for nosuch/pkg") {
		t.Fatalf("nosuch/pkg: err = %v, want no export data for it", err)
	}
}
