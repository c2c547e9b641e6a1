package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// IdBits proves the Global-ID bit layout sound at compile time: the
// scoped bit (a stream-scoped id's marker), the partition-index field
// (the cluster's routing bits) and the per-partition sequence field
// must be pairwise disjoint, or a stream-scoped id could alias a real
// id minted by some partition — silently resolving to the wrong taint.
// The check fires in any package declaring the layout constants
// (scopedBit, partitionMask, seqMask), so a refactor
// that widens one field past another's edge fails `make lint` instead
// of corrupting resolutions at runtime.
var IdBits = &Analyzer{
	Name: "idbits",
	Doc: "the Global-ID bit fields (scoped bit, partition index, sequence) " +
		"must be pairwise disjoint",
	Run: runIdBits,
}

func runIdBits(pass *Pass) {
	type field struct {
		val uint64
		pos token.Pos
	}
	fields := map[string]field{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					switch name.Name {
					case "scopedBit", "partitionMask", "seqMask":
					default:
						continue
					}
					obj, _ := pass.Info.Defs[name].(*types.Const)
					if obj == nil {
						continue
					}
					if v, ok := constant.Uint64Val(constant.ToInt(obj.Val())); ok {
						fields[name.Name] = field{val: v, pos: name.Pos()}
					}
				}
			}
		}
	}
	scoped, hasScoped := fields["scopedBit"]
	part, hasPart := fields["partitionMask"]
	seq, hasSeq := fields["seqMask"]
	if hasScoped && scoped.val&(scoped.val-1) != 0 {
		pass.Reportf(scoped.pos,
			"scoped bit 0x%x is not a single bit", scoped.val)
	}
	if hasScoped && hasPart && scoped.val&part.val != 0 {
		pass.Reportf(part.pos,
			"partition-index mask 0x%x overlaps the scoped bit 0x%x: a stream-scoped id could alias a cluster id",
			part.val, scoped.val)
	}
	if hasPart && hasSeq && part.val&seq.val != 0 {
		pass.Reportf(seq.pos,
			"sequence mask 0x%x overlaps the partition-index mask 0x%x: two partitions could mint the same id",
			seq.val, part.val)
	}
	if hasScoped && hasSeq && scoped.val&seq.val != 0 {
		pass.Reportf(seq.pos,
			"sequence mask 0x%x overlaps the scoped bit 0x%x", seq.val, scoped.val)
	}
}
