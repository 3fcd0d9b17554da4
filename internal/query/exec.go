package query

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sysview"
	"repro/internal/txn"
	"repro/internal/value"
)

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]value.V
	Message string // for define statements
}

// Engine executes POSTQUEL-subset statements against a database.
type Engine struct {
	db *core.DB
	// files is the implicit range of a plain retrieve: every visible
	// naming row. A statement that calls a function joins it to fileatt:
	// runRetrieve gives the scope a core.FileJoin, which scans fileatt
	// once and serves every row's calls from the joined attribute row.
	files *sysview.Rel
}

// New returns an engine over db.
func New(db *core.DB) *Engine {
	return &Engine{db: db, files: &sysview.Rel{
		Columns: []sysview.Column{
			{Name: "filename", Kind: value.KindString},
			{Name: "parentid", Kind: value.KindInt},
			{Name: "file", Kind: value.KindInt},
		},
		Versioned: true,
		Scan: func(snap *txn.Snapshot, emit func([]value.V) error) error {
			row := make([]value.V, 3) // borrowed by emit, reused for every file
			return db.ForEachFile(snap, func(name string, parent, oid device.OID) error {
				row[0], row[1], row[2] = value.Str(name), value.Int(int64(parent)), value.Int(int64(oid))
				return emit(row)
			})
		},
	}}
}

// errSkipRow filters a file out of the result set: applying a function
// a file's type does not support simply fails to match ("would find all
// the files stored by Inversion for which the keywords function was
// defined, and whose keywords included RISC").
var errSkipRow = errors.New("query: row filtered")

// errLimitReached ends a scan whose limit is full; runRetrieve
// swallows it.
var errLimitReached = errors.New("query: limit reached")

// Run parses and executes one statement in the session that issued it:
// define statements go through the session's transaction, and a retrieve
// reads the session's snapshot unless it names its own with asof.
func (e *Engine) Run(s *core.Session, src string) (*Result, error) {
	st, err := parse(src)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *defineTypeStmt:
		if err := s.DefineType(st.name, st.doc); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("type %q defined", st.name)}, nil
	case *defineFuncStmt:
		if err := s.DeclareFunction(catalog.FuncInfo{Name: st.name, TypeName: st.typeName, Doc: st.doc}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("function %q declared (register its implementation in-process)", st.name)}, nil
	case *retrieveStmt:
		return e.runRetrieve(s, st)
	default:
		return nil, fmt.Errorf("query: unhandled statement %T", st)
	}
}

// runRetrieve is the one retrieve executor: resolve the relation, reject
// asof unless it is versioned, resolve every name against its columns
// before any row is read, then scan and collect.
func (e *Engine) runRetrieve(s *core.Session, st *retrieveStmt) (*Result, error) {
	rel := e.files
	if st.fromRel != "" {
		var ok bool
		if rel, ok = e.db.SysViews().Lookup(st.fromRel); !ok {
			return nil, fmt.Errorf("query: unknown virtual relation %q (retrieve (relation) from c in inv_columns lists them)", st.fromRel)
		}
	}
	if st.asofSet && !rel.Versioned {
		// A live catalog materializes present engine state; there is no
		// versioned history to time-travel into, so failing loudly beats
		// silently answering with present-day rows.
		return nil, fmt.Errorf("query: asof is not supported over virtual relation %s: system catalogs are live-only", rel.Name)
	}
	snap := s.Snapshot()
	if st.asofSet {
		snap = e.db.Manager().AsOf(st.asof)
	}
	sc := newScope(rel, st.fromVar)
	if rel == e.files {
		join := e.db.NewFileJoin(snap)
		defer join.Release()
		name, parent, file := sc.cols["filename"], sc.cols["parentid"], sc.cols["file"]
		sc.call = func(fn string) (value.V, error) {
			row := sc.row
			return skipUnsupported(join.Call(fn, row[name].S, device.OID(row[parent].I), device.OID(row[file].I)))
		}
	}
	return collect(st, sc, snap)
}

// skipUnsupported turns a function the file's type does not support —
// or a content function applied to a directory — into a filtered row
// rather than a failed query.
func skipUnsupported(v value.V, err error) (value.V, error) {
	if errors.Is(err, core.ErrTypeMismatch) || errors.Is(err, core.ErrIsDirectory) {
		return value.Null(), errSkipRow
	}
	return v, err
}

// collect resolves every name of st against sc before any row is read,
// then scans sc's relation at snap and applies where, targets, sort and
// limit.
func collect(st *retrieveStmt, sc *scope, snap *txn.Snapshot) (*Result, error) {
	c := &collector{st: st, sc: sc, res: &Result{}}
	for _, t := range st.targets {
		if err := sc.resolve(t.e); err != nil {
			return nil, err
		}
		c.res.Columns = append(c.res.Columns, t.name)
	}
	for _, ex := range []expr{st.where, st.sortBy} {
		if err := sc.resolve(ex); err != nil {
			return nil, err
		}
	}
	if err := sc.rel.Scan(snap, c.add); err != nil && !errors.Is(err, errLimitReached) {
		return nil, err
	}
	c.finish()
	return c.res, nil
}

// scope binds the names of one retrieve to the relation it ranges over
// and, during the scan, to the row under evaluation. The file range has
// no range variable (varName "") and is the only one with a call hook:
// type functions are not defined over catalogs.
type scope struct {
	rel     *sysview.Rel
	varName string
	cols    map[string]int
	row     []value.V // borrowed from Scan for the duration of one emit
	call    func(fn string) (value.V, error)
}

// resolve walks an expression and resolves every name against the
// relation's columns without evaluating anything, so a bad column, range
// variable or call shape is an error whatever rows exist — even behind a
// short-circuit, even when the relation is empty. After it passes,
// evalExpr can index cols without checking.
func (sc *scope) resolve(ex expr) error {
	switch ex := ex.(type) {
	case ident:
		return sc.column(ex.name)
	case fieldRef:
		if sc.varName == "" {
			return fmt.Errorf("query: unknown range variable %q (declare it with from %s in <relation>)", ex.v, ex.v)
		}
		if ex.v != sc.varName {
			return fmt.Errorf("query: unknown range variable %q (the from clause declared %q)", ex.v, sc.varName)
		}
		return sc.column(ex.field)
	case call:
		if sc.call == nil {
			return fmt.Errorf("query: function %s is not defined over virtual relation %s", ex.fn, sc.rel.Name)
		}
		if len(ex.args) != 1 {
			return fmt.Errorf("query: %s takes exactly one argument (file)", ex.fn)
		}
		if id, ok := ex.args[0].(ident); !ok || id.name != "file" {
			return fmt.Errorf("query: %s must be applied to the range variable file", ex.fn)
		}
	case unary:
		return sc.resolve(ex.x)
	case binary:
		if err := sc.resolve(ex.l); err != nil {
			return err
		}
		return sc.resolve(ex.r)
	}
	return nil
}

func newScope(rel *sysview.Rel, varName string) *scope {
	sc := &scope{rel: rel, varName: varName, cols: make(map[string]int, len(rel.Columns))}
	for i, col := range rel.Columns {
		sc.cols[col.Name] = i
	}
	return sc
}

func (sc *scope) column(name string) error {
	if _, ok := sc.cols[name]; ok {
		return nil
	}
	if sc.varName == "" {
		return fmt.Errorf("query: unknown attribute %q", name)
	}
	return fmt.Errorf("query: relation %s has no column %q", sc.rel.Name, name)
}

// collector applies where/targets/sort/limit to the rows of a scan.
type collector struct {
	st    *retrieveStmt
	sc    *scope
	res   *Result
	keyed []sortedRow
}

type sortedRow struct {
	key value.V
	row []value.V
}

// add evaluates one scanned row. The row is borrowed, so everything kept
// is a value evaluated out of it, never the slice itself. A row that
// fails the where clause, or whose evaluation hits errSkipRow, is
// silently dropped.
func (c *collector) add(row []value.V) error {
	c.sc.row = row
	err := c.eval()
	if errors.Is(err, errSkipRow) {
		return nil
	}
	return err
}

func (c *collector) eval() error {
	if c.st.where != nil {
		v, err := evalExpr(c.sc, c.st.where)
		if err != nil || !v.Truthy() {
			return err
		}
	}
	out := make([]value.V, 0, len(c.st.targets))
	for _, t := range c.st.targets {
		v, err := evalExpr(c.sc, t.e)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	if c.st.sortBy != nil {
		k, err := evalExpr(c.sc, c.st.sortBy)
		if err != nil {
			return err
		}
		c.keyed = append(c.keyed, sortedRow{k, out})
		return nil
	}
	c.res.Rows = append(c.res.Rows, out)
	if len(c.res.Rows) == c.st.limit {
		return errLimitReached // unsorted: the first limit rows are the answer
	}
	return nil
}

// finish applies the sort order and limit.
func (c *collector) finish() {
	if c.st.sortBy != nil {
		sort.SliceStable(c.keyed, func(i, j int) bool {
			cmp := value.Compare(c.keyed[i].key, c.keyed[j].key)
			if c.st.sortDsc {
				return cmp > 0
			}
			return cmp < 0
		})
		for _, kr := range c.keyed {
			c.res.Rows = append(c.res.Rows, kr.row)
		}
	}
	if c.st.limit > 0 && len(c.res.Rows) > c.st.limit {
		c.res.Rows = c.res.Rows[:c.st.limit]
	}
}

func evalExpr(sc *scope, ex expr) (value.V, error) {
	switch ex := ex.(type) {
	case numLit:
		if ex.isFloat {
			return value.Float(ex.f), nil
		}
		return value.Int(ex.i), nil
	case strLit:
		return value.Str(ex.s), nil
	case ident:
		return sc.row[sc.cols[ex.name]], nil
	case fieldRef:
		return sc.row[sc.cols[ex.field]], nil
	case call:
		return sc.call(ex.fn)
	case unary:
		x, err := evalExpr(sc, ex.x)
		if err != nil {
			return value.Null(), err
		}
		switch ex.op {
		case "not":
			return value.Bool(!x.Truthy()), nil
		case "-":
			if f, ok := x.AsFloat(); ok {
				if x.Kind == value.KindInt {
					return value.Int(-x.I), nil
				}
				return value.Float(-f), nil
			}
			return value.Null(), fmt.Errorf("query: cannot negate %v", x)
		}
	case binary:
		// Short-circuit logic first.
		switch ex.op {
		case "and":
			l, err := evalExpr(sc, ex.l)
			if err != nil {
				return value.Null(), err
			}
			if !l.Truthy() {
				return value.Bool(false), nil
			}
			r, err := evalExpr(sc, ex.r)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(r.Truthy()), nil
		case "or":
			l, err := evalExpr(sc, ex.l)
			if err != nil {
				return value.Null(), err
			}
			if l.Truthy() {
				return value.Bool(true), nil
			}
			r, err := evalExpr(sc, ex.r)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(r.Truthy()), nil
		}
		l, err := evalExpr(sc, ex.l)
		if err != nil {
			return value.Null(), err
		}
		r, err := evalExpr(sc, ex.r)
		if err != nil {
			return value.Null(), err
		}
		switch ex.op {
		case "=":
			return value.Bool(value.Equal(l, r)), nil
		case "!=":
			return value.Bool(!value.Equal(l, r)), nil
		case "<":
			return value.Bool(value.Compare(l, r) < 0), nil
		case "<=":
			return value.Bool(value.Compare(l, r) <= 0), nil
		case ">":
			return value.Bool(value.Compare(l, r) > 0), nil
		case ">=":
			return value.Bool(value.Compare(l, r) >= 0), nil
		case "in":
			if l.Kind != value.KindString {
				return value.Null(), fmt.Errorf("query: left side of in must be a string")
			}
			return value.Bool(r.Contains(l.S)), nil
		case "+", "-", "*", "/":
			return arith(ex.op, l, r)
		}
	}
	return value.Null(), fmt.Errorf("query: cannot evaluate %T", ex)
}

func arith(op string, l, r value.V) (value.V, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return value.Null(), fmt.Errorf("query: arithmetic on non-numeric values %v %s %v", l, op, r)
	}
	bothInt := l.Kind == value.KindInt && r.Kind == value.KindInt
	switch op {
	case "+":
		if bothInt {
			return value.Int(l.I + r.I), nil
		}
		return value.Float(lf + rf), nil
	case "-":
		if bothInt {
			return value.Int(l.I - r.I), nil
		}
		return value.Float(lf - rf), nil
	case "*":
		if bothInt {
			return value.Int(l.I * r.I), nil
		}
		return value.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return value.Null(), fmt.Errorf("query: division by zero")
		}
		return value.Float(lf / rf), nil
	}
	return value.Null(), fmt.Errorf("query: bad operator %q", op)
}
