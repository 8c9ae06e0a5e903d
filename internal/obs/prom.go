package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
// The dotted internal names map onto Prometheus conventions:
//
//	server.requests          -> dkb_server_requests
//	table.f_parent.rows      -> dkb_table_rows{table="f_parent"}
//	index.ix_p_c0.height     -> dkb_index_height{index="ix_p_c0"}
//
// so per-table and per-index series share one metric family with a
// label instead of exploding the family namespace, which is what makes
// the output aggregatable across a fleet. Histograms are exposed as
// summaries (quantile series plus _sum and _count) because the
// exponential buckets are powers of two, not Prometheus-style
// cumulative le buckets.

// PromContentType is the Content-Type for the exposition body.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promFamily is one exposition family: a metric name plus every labeled
// sample in it.
type promFamily struct {
	name string
	kind Kind
	rows []promRow
}

type promRow struct {
	labels string // rendered label set, "" for none
	m      Metric
}

// WritePrometheus writes the registry snapshot in Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, metrics []Metric) error {
	families := make(map[string]*promFamily)
	var order []string
	for _, m := range metrics {
		name, labels := promName(m.Name)
		f, ok := families[name]
		if !ok {
			f = &promFamily{name: name, kind: m.Kind}
			families[name] = f
			order = append(order, name)
		}
		f.rows = append(f.rows, promRow{labels: labels, m: m})
	}
	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := families[name]
		switch f.kind {
		case KindHistogram:
			// Summary exposition: quantiles from the exponential buckets.
			fmt.Fprintf(&b, "# TYPE %s summary\n", name)
			for _, row := range f.rows {
				fmt.Fprintf(&b, "%s%s %d\n", name, mergeLabels(row.labels, `quantile="0.5"`), row.m.P50)
				fmt.Fprintf(&b, "%s%s %d\n", name, mergeLabels(row.labels, `quantile="0.99"`), row.m.P99)
				fmt.Fprintf(&b, "%s_sum%s %d\n", name, row.labels, row.m.Sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", name, row.labels, row.m.Value)
			}
		case KindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
			for _, row := range f.rows {
				fmt.Fprintf(&b, "%s%s %d\n", name, row.labels, row.m.Value)
			}
		default:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
			for _, row := range f.rows {
				fmt.Fprintf(&b, "%s%s %d\n", name, row.labels, row.m.Value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a dotted registry name to (family, rendered labels),
// extracting the dynamic middle component of per-table and per-index
// series into a label.
func promName(name string) (string, string) {
	if rest, ok := strings.CutPrefix(name, "table."); ok {
		if table, field, ok := cutLast(rest); ok {
			return "dkb_table_" + mangle(field), promLabels("table", table)
		}
	}
	if rest, ok := strings.CutPrefix(name, "index."); ok {
		if index, field, ok := cutLast(rest); ok {
			return "dkb_index_" + mangle(field), promLabels("index", index)
		}
	}
	return "dkb_" + mangle(name), ""
}

// cutLast splits "middle.possibly.dotted.field" at the last dot.
func cutLast(s string) (prefix, last string, ok bool) {
	i := strings.LastIndexByte(s, '.')
	if i < 0 {
		return "", s, false
	}
	return s[:i], s[i+1:], true
}

// mangle rewrites a dotted internal name as a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_'.
func mangle(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders one label pair with value escaping per the
// exposition format (backslash, quote, newline).
func promLabels(key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return fmt.Sprintf(`{%s="%s"}`, key, esc)
}

// mergeLabels merges a rendered label set with one extra pair.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}
