package text

import "testing"

const benchTweet = "RT @somebody: OMG this is SOOO bad, check http://t.co/abc123 " +
	"the 2nd game of the season was a total mess!! #fail #sports 100%"

// BenchmarkFeaturePathScan measures the single-pass scanner under the
// preprocessing spec, the production path.
func BenchmarkFeaturePathScan(b *testing.B) {
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Scan(benchTweet)
	}
}

// BenchmarkFeaturePathScanRaw measures the scanner under the raw spec
// (p=OFF).
func BenchmarkFeaturePathScanRaw(b *testing.B) {
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.ScanRaw(benchTweet)
	}
}
