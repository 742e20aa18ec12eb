// Package mvc implements the MVC 2 runtime of Sections 3–4: the
// Controller servlet, page actions, the generic page service (topological
// unit ordering and parameter propagation), the generic unit services
// instantiated from XML descriptors, operation services with OK/KO flow,
// the validation service, and session state. It is the Model and
// Controller of Figure 4; the View lives in internal/render.
package mvc

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"webmlgo/internal/rdb"
)

// Value is a scalar carried in beans and parameters.
type Value = rdb.Value

// Row maps bean field names to values.
type Row map[string]Value

// Node is one displayed object, possibly with nested children (the
// hierarchical index of Figure 1).
type Node struct {
	Values   Row
	Children []Node
}

// UnitBean is the state object produced by a unit service: "JavaBeans
// storing the result of the data retrieval queries of the page units...
// available to the View" (Section 3).
type UnitBean struct {
	UnitID string
	Kind   string
	// Fields lists the top-level field names in display order.
	Fields []string
	// LevelFields lists field names per nesting level.
	LevelFields [][]string
	// Nodes are the displayed objects.
	Nodes []Node
	// Missing marks a unit whose mandatory input was absent: it renders
	// empty.
	Missing bool

	// Scroller state.
	Total    int
	Offset   int
	PageSize int

	// Entry state: field specs plus any validation errors to redisplay.
	FormFields []FormField
	Errors     map[string]string

	// Props carries plug-in configuration to plug-in renderers.
	Props map[string]string
}

// FormField is one entry-unit field as exposed to the View.
type FormField struct {
	Name     string
	Type     string
	Required bool
	// Value is the sticky value redisplayed after a validation failure.
	Value string
}

// Hash returns a fast content hash of the bean, used as the fragment
// cache variant key: identical bean content renders identical markup.
func (b *UnitBean) Hash() uint64 {
	h := fnv.New64a()
	io := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	io(b.UnitID)
	io(b.Kind)
	if b.Missing {
		io("missing")
	}
	io(strconv.Itoa(b.Total))
	io(strconv.Itoa(b.Offset))
	var walk func(ns []Node)
	walk = func(ns []Node) {
		for _, n := range ns {
			names := make([]string, 0, len(n.Values))
			for k := range n.Values {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				io(k)
				io(rdb.FormatValue(n.Values[k]))
			}
			walk(n.Children)
			io("|")
		}
	}
	walk(b.Nodes)
	for _, f := range b.FormFields {
		io(f.Name)
		io(f.Value)
	}
	errs := make([]string, 0, len(b.Errors))
	for k := range b.Errors {
		errs = append(errs, k)
	}
	sort.Strings(errs)
	for _, k := range errs {
		io(k)
		io(b.Errors[k])
	}
	return h.Sum64()
}

// OpResult reports an operation's outcome to the Controller, which
// "decides what to do next" (Section 2).
type OpResult struct {
	OK bool
	// Err describes the failure when !OK.
	Err string
	// Outputs are values produced by the operation (e.g. the OID of a
	// created object) available to OK/KO link parameters.
	Outputs map[string]Value
}

// ConvertParam turns an HTTP request parameter into a typed Value using
// the natural literal interpretation (integer, then float, then string).
func ConvertParam(s string) Value {
	if s == "" {
		return ""
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// FormatParam renders a Value back into its request-parameter form.
func FormatParam(v Value) string { return rdb.FormatValue(v) }

// rowsToNodes converts a query result into bean nodes using the output
// field definitions (field name <- column).
func rowsToNodes(rows *rdb.Rows, fields []fieldDef) ([]Node, error) {
	cols := make([]int, len(fields))
	for i, f := range fields {
		idx := rows.Col(f.column)
		if idx < 0 {
			return nil, fmt.Errorf("mvc: result set lacks column %q", f.column)
		}
		cols[i] = idx
	}
	nodes := make([]Node, len(rows.Data))
	for i, r := range rows.Data {
		values := make(Row, len(fields))
		for j, f := range fields {
			values[f.name] = r[cols[j]]
		}
		nodes[i] = Node{Values: values}
	}
	return nodes, nil
}

type fieldDef struct{ name, column string }

func fieldNames(fs []fieldDef) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.name
	}
	return out
}

func lowerEq(a, b string) bool { return strings.EqualFold(a, b) }
