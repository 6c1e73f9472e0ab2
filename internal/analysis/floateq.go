package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != on floating-point operands, and switch statements
// over a floating-point tag. Raw float equality is the classic way solver
// refactors silently change behaviour: two mathematically equal quantities
// computed along different code paths differ in the last bit, so an exact
// comparison that used to hold stops holding. Comparisons belong in the
// shared tolerance helpers (mat.Eq, mat.Zero); internal/mat itself — where
// the helpers live — and test files are exempt. Sites where exact
// comparison is the point (IEEE sentinel checks, skip-zero fast paths over
// values never produced by arithmetic) carry //birplint:ignore floateq.
var FloatEq = &Analyzer{
	Name:      "floateq",
	Doc:       "flags raw ==/!=/switch on float operands outside internal/mat and tests",
	SkipTests: true,
	Run:       runFloatEq,
}

func runFloatEq(p *Pass) {
	if pathTail(p.Unit.Path) == "mat" {
		return // the tolerance helpers themselves
	}
	for _, f := range p.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op != token.EQL && e.Op != token.NEQ {
					return true
				}
				if isFloat(p.TypeOf(e.X)) || isFloat(p.TypeOf(e.Y)) {
					p.Reportf(e.OpPos, "%s on float operands (%s %s %s); use mat.Eq/mat.Zero or //birplint:ignore floateq",
						e.Op, types.ExprString(e.X), e.Op, types.ExprString(e.Y))
				}
			case *ast.SwitchStmt:
				if e.Tag != nil && isFloat(p.TypeOf(e.Tag)) {
					p.Reportf(e.Switch, "switch on float expression %s compares exactly; use tolerance comparisons",
						types.ExprString(e.Tag))
				}
			}
			return true
		})
	}
}
