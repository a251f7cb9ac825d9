package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFig6PreprocessOffGolden runs Fig. 6's two p=OFF pipelines (HT, 3- and
// 2-class) at Scale 0.1 and requires, bit for bit, the Summary and final
// BoW size they reached on commit ca89b3d, where the multi-pass extractor
// served p=OFF. The record is internal/feature/testdata/preprocess_off.golden,
// written on that commit; do not regenerate it from this tree.
func TestFig6PreprocessOffGolden(t *testing.T) {
	data, err := os.ReadFile("../feature/testdata/preprocess_off.golden")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string][]string)
	var name string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			name = strings.TrimPrefix(line, "== ")
		default:
			sections[name] = append(sections[name], line)
		}
	}

	cfg := Config{Scale: 0.1, Seed: 42}.withDefaults()
	runs := 0
	for _, v := range fig6Variants(cfg) {
		if v.opts.Preprocess {
			continue
		}
		p := runPipeline(v.opts, AggressionDataset(cfg))
		summary, err := json.Marshal(p.Summary())
		if err != nil {
			t.Fatal(err)
		}
		got := []string{"summary " + string(summary), fmt.Sprintf("bow_size %d", p.Extractor().BoW().Size())}
		if want := sections["fig6/"+v.name]; strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got  %q\n want %q", v.name, got, want)
		}
		runs++
	}
	if runs != 2 {
		t.Fatalf("Fig. 6 has %d p=OFF pipelines, the golden 2", runs)
	}
}
