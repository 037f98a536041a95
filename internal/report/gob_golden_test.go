package report

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"testing"
)

// raggedTable is the table testdata/ragged_table.gob holds: rows shorter
// and longer than the header, an empty row, empty cells, and non-ASCII
// text, which CSV and Markdown must quote or pass through.
func raggedTable() *Table {
	tbl := NewTable("Ragged: ünïcødé, \"quoted\"", "tool", "métrique", "a,b", "")
	tbl.AddRow("short")
	tbl.AddRow()
	tbl.AddRow("x", "", "y")
	tbl.AddRow("ts-lite", "0,5", "say \"hi\"", "line\nbreak", "extra", "éé")
	tbl.AddRow("", "", "", "")
	tbl.AddRow("日本語", "–", "ß")
	return tbl
}

// renderAll concatenates every renderer's output, each under a marker.
func renderAll(t *testing.T, tbl *Table) string {
	t.Helper()
	j, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return "== String\n" + tbl.String() + "== CSV\n" + tbl.CSV() + "== Markdown\n" + tbl.Markdown() + "== JSON\n" + string(j) + "\n"
}

// TestRaggedTableGobGolden pins the gob wire shape of Table. The blob and
// the renders were written by the row-slice Table that preceded the
// packed one: journals and result blobs persisted by it must decode and
// render byte-identically, and a table built today must render the same.
func TestRaggedTableGobGolden(t *testing.T) {
	blob, err := os.ReadFile("testdata/ragged_table.gob")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/ragged_table.golden")
	if err != nil {
		t.Fatal(err)
	}
	var decoded Table
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, &decoded); got != string(golden) {
		t.Fatalf("decoded blob renders differently\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if got := renderAll(t, raggedTable()); got != string(golden) {
		t.Fatalf("built table renders differently\ngot:\n%s\nwant:\n%s", got, golden)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(raggedTable()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatal("re-encoded table differs from the stored blob")
	}
}
