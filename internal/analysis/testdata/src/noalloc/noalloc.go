// Package noalloc seeds one violation per allocating construct the
// noalloc analyzer recognizes, plus the negative cases the carve-outs
// must keep legal. The trailing want comments are matched against
// diagnostics by the harness in analysis_test.go.
package noalloc

type buf struct {
	data []byte
	n    int
}

type parseError struct{ msg string }

func (e *parseError) Error() string { return e.msg }

func sink(v any) { _ = v }

func work() {}

//redvet:noalloc
func violations(b *buf, s string, x int) int {
	m := make([]byte, 8) // want "make allocates"
	p := new(buf)        // want "new allocates"
	_ = p
	q := &buf{} // want "escapes to the heap"
	_ = q
	sl := []int{1, 2, 3} // want "slice literal allocates"
	_ = sl
	mp := map[string]int{} // want "map literal allocates"
	_ = mp
	s2 := s + "x" // want "string concatenation allocates"
	_ = s2
	bs := []byte(s) // want "conversion from string allocates"
	_ = bs
	str := string(b.data) // want "conversion to string allocates"
	_ = str
	switch string(b.data) { // want "conversion to string allocates"
	case s: // a non-constant case needs the string
		x++
	}
	f := func() {} // want "closure literal allocates"
	_ = f
	go work() // want "go statement allocates"
	sink(x)   // want "boxes it on the heap"
	var t []byte
	t = append(m, 1) // want "append growth escapes"
	_ = t
	return x
}

//redvet:noalloc
func clean(b *buf, s string) int {
	b.n++
	b.data = append(b.data, s...) // amortized reuse: sanctioned
	sink(&b.n)                    // pointers fit the interface word, no box
	if string(b.data) == s || string(b.data) != "lit" {
		b.n++ // a conversion that is only compared is never materialized
	}
	switch string(b.data) {
	case "a", "bc":
		b.n++ // nor is one switched on against constant cases
	}
	return len(b.data)
}

//redvet:noalloc
func coldOK(b *buf) (int, error) {
	if b.n < 0 {
		// Error paths are cold: allocation here is failure handling.
		return 0, &parseError{msg: "negative length"}
	}
	return b.n, nil
}

func partialBad(b *buf) {
	warm := make([]byte, 4) // outside any region: legal
	_ = warm
	//redvet:noalloc
	x := make([]int, b.n) // want "make allocates"
	_ = x
}
