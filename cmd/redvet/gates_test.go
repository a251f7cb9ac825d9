package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redhanded/internal/analysis"
)

const repoRoot = "../.."

// TestGateTable runs the cross-check the way `redvet ./...` does and then
// proves it is load-bearing in both directions: an annotation removed from
// source, an annotation the table does not list, and a gate name nothing
// measures are each a finding.
func TestGateTable(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load skipped in -short mode")
	}
	prog, err := analysis.Load(repoRoot, []string{"./..."})
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	index := analysis.BuildIndex(prog)
	for _, d := range checkGates(prog, index) {
		t.Errorf("gate table and annotations disagree: %s", d)
	}

	gated := -1
	for i, r := range index.Regions {
		if r.Gate != "" {
			gated = i
			break
		}
	}
	if gated < 0 {
		t.Fatal("no gate-carrying noalloc region indexed; annotations missing")
	}
	victim := index.Regions[gated]
	mutate := func(edit func(*analysis.Region) bool) *analysis.Index {
		ix := *index
		ix.Regions = nil
		for i, r := range index.Regions {
			if i != gated || edit(&r) {
				ix.Regions = append(ix.Regions, r)
			}
		}
		return &ix
	}
	for _, tc := range []struct {
		name string
		edit func(*analysis.Region) bool // false drops the region
		want string
	}{
		{"annotation deleted", func(*analysis.Region) bool { return false }, victim.FuncName + ": //redvet:noalloc gate=" + victim.Gate + " annotation missing"},
		{"function not listed", func(r *analysis.Region) bool { r.FuncName += "Renamed"; return true }, "is not in the gate table"},
		{"gate nobody measures", func(r *analysis.Region) bool { r.Gate = "Unmeasured"; return true }, "no test measures it"},
	} {
		found := false
		for _, d := range checkGates(prog, mutate(tc.edit)) {
			found = found || (d.Check == gateCheck && strings.Contains(d.Msg, tc.want))
		}
		if !found {
			t.Errorf("%s: no finding containing %q", tc.name, tc.want)
		}
	}
}

// TestGatesNameExistingTests keeps every gate's measuredBy pointing at a
// test that exists, so renaming one cannot silently leave a gate unmeasured.
func TestGatesNameExistingTests(t *testing.T) {
	for gate, g := range noallocGates {
		dir, name, ok := strings.Cut(g.measuredBy, ".")
		if !ok {
			t.Errorf("gate %s: measuredBy %q is not <package dir>.<Test name>", gate, g.measuredBy)
			continue
		}
		files, err := filepath.Glob(filepath.Join(repoRoot, dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || bytes.Contains(src, []byte("\nfunc "+name+"(t *testing.T)"))
		}
		if !found {
			t.Errorf("gate %s: no test %s in %s", gate, name, dir)
		}
	}
}
