package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/report"
)

// TestCacheKeyCoversEveryConfigField walks Config by reflection,
// perturbs each numeric leaf in isolation, and demands that the cache
// key changes — except for the worker budget (Workers), which the
// outputs are provably invariant to because every layer is
// workers-deterministic. Adding a Config field without folding it into
// CacheKey (or this exclusion list) fails this test instead of silently
// serving stale cached results.
func TestCacheKeyCoversEveryConfigField(t *testing.T) {
	cfg := DefaultConfig()
	baseKey := CacheKey("e1", cfg)

	// excluded reports the fields whose perturbation must NOT move the
	// key.
	excluded := func(name string) bool { return name == "Workers" }

	// The walk mutates cfg in place through the addressable value chain,
	// one numeric leaf at a time, restoring it before moving on.
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			fv := v.Field(i)
			orig := reflect.ValueOf(fv.Interface())
			switch fv.Kind() {
			case reflect.Struct:
				walk(fv, name+".")
				continue
			case reflect.Int, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + 1)
			case reflect.Float64:
				fv.SetFloat(fv.Float()*2 + 0.25)
			default:
				t.Fatalf("Config field %s has unhandled kind %s; extend this test and CacheKey", name, fv.Kind())
			}
			key := CacheKey("e1", cfg)
			if excluded(name) {
				if key != baseKey {
					t.Errorf("perturbing %s changed the key; the worker budget must be excluded (output is invariant to it)", name)
				}
			} else if key == baseKey {
				t.Errorf("perturbing %s did NOT change the key; CacheKey is missing this field", name)
			}
			fv.Set(orig)
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")
	if got := CacheKey("e1", cfg); got != baseKey {
		t.Fatalf("walk did not restore the config (key %s vs %s)", got, baseKey)
	}
}

func TestCacheKeyIDHandling(t *testing.T) {
	cfg := DefaultConfig()
	if CacheKey("e1", cfg) == CacheKey("e2", cfg) {
		t.Fatal("different experiment IDs share a key")
	}
	if CacheKey(" E1 ", cfg) != CacheKey("e1", cfg) {
		t.Fatal("ID normalisation (trim+lowercase) not applied")
	}
}

// The published results and the cache-key version they were computed
// under. A job journaled by an older program keeps its old key, so a new
// submission of the same configuration must hash differently whenever
// the program's output changes.
const (
	publishedResultsVersion = "vdbench-experiment-v2"
	publishedResultsSHA256  = "e0168c40cb29d7477d0adb96651b42354f91a801f017b1b2c14e2a09b52d43ee"
)

// TestCacheKeyVersionTracksPublishedResults fails when
// results/experiments_default.txt changes while CacheKey still hashes the
// version the old file was pinned under. After a deliberate change of
// the published numbers, bump cacheKeyVersion and pin both here.
func TestCacheKeyVersionTracksPublishedResults(t *testing.T) {
	data, err := os.ReadFile("../../results/experiments_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if cacheKeyVersion != publishedResultsVersion {
		t.Fatalf("CacheKey hashes %q but the published results are pinned under %q: pin the new version with the results' SHA-256 %s", cacheKeyVersion, publishedResultsVersion, got)
	}
	if got != publishedResultsSHA256 {
		t.Fatalf("results/experiments_default.txt changed (SHA-256 %s, pinned %s) under CacheKey version %q: bump the CacheKey version and pin the new digest", got, publishedResultsSHA256, cacheKeyVersion)
	}
}

func testResult() Result {
	tbl := report.NewTable("T", "a", "b")
	tbl.AddRow("1", "2")
	fig := &report.Figure{
		Title:  "F",
		XLabel: "x",
		YLabel: "y",
		Series: []report.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, math.NaN()}}},
	}
	return Result{ID: "eX", Title: "demo", Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}}
}

func TestRenderFormats(t *testing.T) {
	r := testResult()
	text, err := r.Render("text")
	if err != nil || text != r.String() {
		t.Fatalf("text render mismatch (err %v)", err)
	}
	csv, err := r.Render("csv")
	if err != nil || !strings.Contains(csv, "a,b") {
		t.Fatalf("csv render = %q (err %v)", csv, err)
	}
	md, err := r.Render("markdown")
	if err != nil || !strings.Contains(md, "| a | b |") {
		t.Fatalf("markdown render = %q (err %v)", md, err)
	}
	js, err := r.Render("json")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID      string            `json:"id"`
		Title   string            `json:"title"`
		Tables  []json.RawMessage `json:"tables"`
		Figures []struct {
			Series []struct {
				Y []*float64 `json:"y"`
			} `json:"series"`
		} `json:"figures"`
	}
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Fatalf("json render does not parse: %v\n%s", err, js)
	}
	if decoded.ID != "eX" || len(decoded.Tables) != 1 || len(decoded.Figures) != 1 {
		t.Fatalf("json shape wrong: %s", js)
	}
	// The NaN y-value must encode as null, not break encoding/json.
	y := decoded.Figures[0].Series[0].Y
	if len(y) != 2 || y[0] == nil || y[1] != nil {
		t.Fatalf("non-finite point not encoded as null: %s", js)
	}
	if _, err := r.Render("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRenderEmptyResultJSON(t *testing.T) {
	// nil table/figure slices must encode as [], not null.
	js, err := Result{ID: "e0", Title: "empty"}.Render("json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"tables": []`) || !strings.Contains(js, `"figures": []`) {
		t.Fatalf("nil slices not normalised to []: %s", js)
	}
}

func TestJSONDeterministic(t *testing.T) {
	a, err := testResult().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testResult().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("JSON encoding is not deterministic")
	}
}

func TestCatalogMatchesIDs(t *testing.T) {
	cat := Catalog()
	ids := IDs()
	if len(cat) != len(ids) {
		t.Fatalf("catalog has %d entries, IDs has %d", len(cat), len(ids))
	}
	for i, info := range cat {
		if info.ID != ids[i] {
			t.Fatalf("catalog[%d] = %s, want %s", i, info.ID, ids[i])
		}
		if info.Title == "" {
			t.Fatalf("experiment %s has an empty title", info.ID)
		}
	}
}

func TestFormatsList(t *testing.T) {
	want := []string{"text", "csv", "markdown", "json"}
	if got := Formats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Formats() = %v, want %v", got, want)
	}
}
