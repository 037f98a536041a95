// Package report renders experiment outputs as aligned ASCII tables, CSV,
// JSON, and simple text "figures" (series dumps suitable for plotting).
// Every table and figure the benchmark reproduces flows through this
// package, so all experiment output is uniform and diffable.
package report

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a simple rectangular table with a title and column headers.
//
// The data rows are packed: every cell's bytes sit back to back in one
// buffer, cellEnd[k] is where cell k ends, and rowEnd[i] is the number of
// cells rows 0..i hold. A finished experiment result keeps its tables for
// as long as the job service caches it, and one buffer with two offset
// slices costs far less heap than a string header and an allocation per
// cell. Every renderer reads the rows through rows.
type Table struct {
	Title   string
	Headers []string
	cells   []byte
	cellEnd []uint32
	rowEnd  []uint32
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a copy of cells as a row. Rows shorter than the header
// are padded; longer rows are accepted verbatim (the renderer widens the
// table).
func (t *Table) AddRow(cells ...string) {
	for _, c := range cells {
		t.cells = append(t.cells, c...)
		t.cellEnd = append(t.cellEnd, uint32(len(t.cells)))
	}
	t.rowEnd = append(t.rowEnd, uint32(len(t.cellEnd)))
}

// AddRowValues appends a row of arbitrary values formatted with %v, except
// float64 values which are formatted compactly.
func (t *Table) AddRowValues(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rowEnd) }

// rows returns the data rows, each padded with empty cells to at least
// width. It is the one accessor every renderer reads the table through;
// the cells are substrings of one copy of the buffer.
func (t *Table) rows(width int) [][]string {
	all := string(t.cells)
	out := make([][]string, len(t.rowEnd))
	cell, from := 0, uint32(0)
	for i, end := range t.rowEnd {
		row := make([]string, max(int(end)-cell, width))
		for k := range int(end) - cell {
			to := t.cellEnd[cell]
			row[k] = all[from:to]
			from = to
			cell++
		}
		out[i] = row
	}
	return out
}

// Rows returns a copy of the data rows, each padded to the header width
// (longer rows are returned verbatim, matching the text renderer).
func (t *Table) Rows() [][]string { return t.rows(len(t.Headers)) }

// MarshalJSON encodes the table with its rows padded like Rows, so the
// JSON form and the text form describe the same rectangle.
func (t *Table) MarshalJSON() ([]byte, error) {
	headers := t.Headers
	if headers == nil {
		headers = []string{}
	}
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, headers, t.Rows()})
}

// gobTable is the wire form of a Table for gob: the raw, unpadded rows,
// so every renderer (String, CSV, Markdown, JSON) produces byte-identical
// output from a decoded table. Gob is the persistence codec of the
// durable job store — the JSON form cannot serve there because it pads
// rows and nulls non-finite values. Persisted journals and blobs hold
// this shape, so it must not change with the in-memory layout.
type gobTable struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// GobEncode implements gob.GobEncoder. Without it, gob would silently
// drop the unexported rows.
func (t *Table) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobTable{t.Title, t.Headers, t.rows(0)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *Table) GobDecode(data []byte) error {
	var w gobTable
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*t = Table{Title: w.Title, Headers: w.Headers}
	for _, r := range w.Rows {
		t.AddRow(r...)
	}
	return nil
}

// FormatFloat renders a float compactly: four significant decimals,
// trailing zeros trimmed, integers without a decimal point.
func FormatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	rows := t.rows(0)
	cols := len(t.Headers)
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(row []string) {
		var line strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(cell)
			line.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString(strings.TrimRight(line.String(), " "))
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-style CSV (fields with commas,
// quotes or newlines are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(csvEscape(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows(0) {
		writeRow(r)
	}
	return sb.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Markdown renders the table as a GitHub-flavoured Markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Headers)) + "\n")
	for _, r := range t.rows(0) {
		cells := make([]string, len(t.Headers))
		for i := range cells {
			if i < len(r) {
				cells[i] = r[i]
			}
		}
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return sb.String()
}

// Series is a named sequence of (x, y) points: the text form of a figure.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// jsonFloat encodes non-finite values as null: encoding/json rejects NaN
// and ±Inf outright, but figures may legitimately carry undefined points
// (metrics outside their domain).
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func jsonFloats(vs []float64) []jsonFloat {
	out := make([]jsonFloat, len(vs))
	for i, v := range vs {
		out[i] = jsonFloat(v)
	}
	return out
}

// MarshalJSON encodes the series with non-finite points as null.
func (s Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name string      `json:"name"`
		X    []jsonFloat `json:"x"`
		Y    []jsonFloat `json:"y"`
	}{s.Name, jsonFloats(s.X), jsonFloats(s.Y)})
}

// Figure is a set of series sharing axes: the text equivalent of one paper
// figure.
type Figure struct {
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
}

// AddSeries appends a series; x and y must have equal length.
func (f *Figure) AddSeries(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("report: series %q has %d x values and %d y values", name, len(x), len(y))
	}
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
	return nil
}

// String renders the figure as a data block: one line per point, one
// section per series. The output is directly consumable by plotting tools.
func (f *Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# figure: %s\n", f.Title)
	fmt.Fprintf(&sb, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "## series: %s\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&sb, "%s\t%s\n", FormatFloat(s.X[i]), FormatFloat(s.Y[i]))
		}
	}
	return sb.String()
}
