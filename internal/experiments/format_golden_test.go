package experiments

import (
	"os"
	"testing"
)

// TestE4FormatsMatchGolden pins the CSV, Markdown and JSON renderers on
// E4's tables, the result the job service renders most. Regenerate
// deliberately with:
//
//	for f in csv:csv markdown:md json:json; do go run ./cmd/vdbench -quick -workers 1 -format ${f%:*} e4 > internal/experiments/testdata/e4_golden.${f#*:}; done
func TestE4FormatsMatchGolden(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = 1
	runner, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run("e4")
	if err != nil {
		t.Fatal(err)
	}
	for format, ext := range map[string]string{"csv": "csv", "markdown": "md", "json": "json"} {
		golden, err := os.ReadFile("testdata/e4_golden." + ext)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(golden) {
			t.Errorf("E4 %s output diverged from the golden snapshot\ngot:\n%s", format, got)
		}
	}
}
