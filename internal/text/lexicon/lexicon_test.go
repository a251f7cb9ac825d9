package lexicon

import "testing"

func TestSeedSize(t *testing.T) {
	words := SwearWords()
	if len(words) != SeedSwearCount {
		t.Fatalf("seed list has %d words, want %d", len(words), SeedSwearCount)
	}
}

func TestSeedNoDuplicates(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range SwearWords() {
		if seen[w] {
			t.Fatalf("duplicate seed word %q", w)
		}
		seen[w] = true
	}
}

func TestSwearWordsReturnsCopy(t *testing.T) {
	a := SwearWords()
	a[0] = "changed"
	b := SwearWords()
	if b[0] == "changed" {
		t.Fatalf("SwearWords exposes internal slice")
	}
}

func TestVariantsPresent(t *testing.T) {
	// The seed list must include obfuscation variants beyond the base list,
	// otherwise the 347 target could not have been met.
	base := map[string]bool{}
	for _, w := range baseSwears {
		base[w] = true
	}
	variants := 0
	for _, w := range SwearWords() {
		if !base[w] {
			variants++
		}
	}
	if variants == 0 {
		t.Fatalf("no obfuscation variants found in seed list")
	}
}
