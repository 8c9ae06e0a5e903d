package plan

import (
	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/sql"
)

// BindTablePred resolves a predicate against a single table's schema
// (ordinals are table-local). DELETE ... WHERE uses this.
func BindTablePred(t *catalog.Table, e sql.Expr) (exec.Pred, error) {
	sc := &scope{aliases: []string{t.Name}, tables: []*catalog.Table{t}}
	p, err := sc.pred(e)
	if err != nil {
		return nil, err
	}
	return bind(p, colMap{0})
}
