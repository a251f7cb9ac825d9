package main

import (
	"fmt"
	"os"
	"sort"

	"redhanded/internal/analysis"
)

// noallocGates is the authoritative pairing between the //redvet:noalloc
// gate names annotated in source and the measurements (a benchreport mode,
// or for SSEEmit an AllocsPerRun test) that enforce 0 allocs/op for those
// functions. -verify-noalloc diffs this
// table against the annotations the analysis driver actually indexes, in
// both directions: deleting any single annotation (or inventing a gate
// no benchmark measures) fails the check. When a hot path genuinely
// changes shape, this table is the reviewed place to record it.
var noallocGates = map[string]struct {
	measuredBy string   // the benchreport mode + field that gates allocs
	funcs      []string // qualified functions that must carry the gate
}{
	"CompiledClassify": {
		measuredBy: "benchreport -snapshot: ZeroAllocClassify / meets_target_zero_alloc",
		funcs: []string{
			"redhanded/internal/stream.(*Compiled).PredictInto",
			"redhanded/internal/stream.(*Compiled).predictSLR",
			"redhanded/internal/stream.(*compiledTree).predictInto",
			"redhanded/internal/stream.naiveBayesInto",
		},
	},
	"FeaturePathFast": {
		measuredBy: "benchreport (default): ExtractAllocsFast / MeetsTargetAllocs",
		funcs: []string{
			"redhanded/internal/feature.(*Extractor).ExtractInto",
			"redhanded/internal/feature.(*Extractor).extractFast",
			"redhanded/internal/feature.(*bowSnapshot).lookup",
			"redhanded/internal/feature.(*extractScratch).sentimentStep",
			"redhanded/internal/feature.hashWord",
			"redhanded/internal/feature.(wordInfo).sentiment",
			"redhanded/internal/feature.(wordInfo).tag",
			"redhanded/internal/text/pos.TagOpenLower",
			"redhanded/internal/text/sentiment.(*Stepper).Reset",
			"redhanded/internal/text/sentiment.(*Stepper).Step",
			"redhanded/internal/text/sentiment.(*Stepper).Score",
			"redhanded/internal/text/sentiment.Squeeze",
		},
	},
	"FeaturePathScan": {
		measuredBy: "benchreport (default): FeaturePathScan entry",
		funcs: []string{
			"redhanded/internal/text.(*Scratch).Reset",
			"redhanded/internal/text.(*Scratch).Scan",
			"redhanded/internal/text.(*Scratch).field",
			"redhanded/internal/text.fieldEnd",
			"redhanded/internal/text.spaceLen",
		},
	},
	"UserstateObserveHot": {
		measuredBy: "benchreport -userstate: ZeroAllocHot",
		funcs: []string{
			"redhanded/internal/userstate.(*Store).Observe",
			"redhanded/internal/userstate.(*Store).observeLocked",
			"redhanded/internal/userstate.(*record).slide",
		},
	},
	"SpanLifecycle": {
		measuredBy: "benchreport -obs: ZeroAllocSpan",
		funcs: []string{
			"redhanded/internal/obs.(*Span).Add",
			"redhanded/internal/obs.(*Span).AddExclusive",
			"redhanded/internal/obs.(*Span).BeginStage",
			"redhanded/internal/obs.(*Span).EndStage",
			"redhanded/internal/obs.(*Span).Finish",
			"redhanded/internal/obs.(*Span).SetID",
			"redhanded/internal/obs.(*Tracer).Abort",
			"redhanded/internal/obs.(*Tracer).Begin",
			"redhanded/internal/obs.(*Tracer).finish",
			"redhanded/internal/obs.(*Tracer).now",
			"redhanded/internal/obs.(*reservoir).next",
			"redhanded/internal/obs.(*reservoir).offer",
			"redhanded/internal/obs.(*ring).append",
			"redhanded/internal/obs.(*slowRing).append",
			"redhanded/internal/obs.encodeEntry",
		},
	},
	"IngressDecode": {
		measuredBy: "benchreport -ingress: DecodeAllocs / meets_target_zero_alloc_decode",
		funcs: []string{
			"redhanded/internal/twitterdata.(*Decoder).DecodeInto",
			"redhanded/internal/twitterdata.(*Decoder).Discard",
			"redhanded/internal/twitterdata.(*Decoder).decodeTweet",
			"redhanded/internal/twitterdata.(*Decoder).decodeUser",
			"redhanded/internal/twitterdata.(*Decoder).getu4",
			"redhanded/internal/twitterdata.(*Decoder).intField",
			"redhanded/internal/twitterdata.(*Decoder).intern",
			"redhanded/internal/twitterdata.(*Decoder).literalNull",
			"redhanded/internal/twitterdata.(*Decoder).objectNext",
			"redhanded/internal/twitterdata.(*Decoder).readKey",
			"redhanded/internal/twitterdata.(*Decoder).skipNumber",
			"redhanded/internal/twitterdata.(*Decoder).skipString",
			"redhanded/internal/twitterdata.(*Decoder).skipValue",
			"redhanded/internal/twitterdata.(*Decoder).skipWS",
			"redhanded/internal/twitterdata.(*Decoder).stringField",
			"redhanded/internal/twitterdata.(*Decoder).unquote",
			"redhanded/internal/twitterdata.(*Decoder).unquoteSlow",
			"redhanded/internal/twitterdata.foldsToASCII",
			"redhanded/internal/twitterdata.keyMatches",
		},
	},
	"FeatCacheLookup": {
		measuredBy: "benchreport -ingress: CacheHitAllocs / meets_target_zero_alloc_hit",
		funcs: []string{
			"redhanded/internal/feature.(*Extractor).LookupCached",
			"redhanded/internal/feature.(*Extractor).fillProfile",
			"redhanded/internal/feature.(*extractCache).lookup",
			"redhanded/internal/feature.fnv64aString",
		},
	},
	"SegmentRead": {
		measuredBy: "benchreport -ingestlog: MeetsTargetAllocs (segment read)",
		funcs: []string{
			"redhanded/internal/ingestlog.(*Reader).Next",
			"redhanded/internal/ingestlog.(*decoder).byte",
			"redhanded/internal/ingestlog.(*decoder).int",
			"redhanded/internal/ingestlog.(*decoder).str",
			"redhanded/internal/ingestlog.DecodeTweet",
			"redhanded/internal/ingestlog.frameAt",
			"redhanded/internal/ingestlog.scanSegment",
		},
	},
	"SSEEmit": {
		measuredBy: "go test ./internal/serve: TestAlertEgressZeroAlloc (AllocsPerRun = 0) and BenchmarkSSEEmit allocs/op",
		funcs: []string{
			"redhanded/internal/serve.appendFrame",
			"redhanded/internal/serve.appendJSONFloat",
			"redhanded/internal/serve.appendJSONString",
			"redhanded/internal/serve.appendJSONTime",
			"redhanded/internal/serve.drainFrames",
		},
	},
}

// verifyNoalloc cross-references the //redvet:noalloc annotations the
// analysis driver indexes against the gate table above. It must run
// from the module root (CI does; `go run ./cmd/benchreport` from a
// checkout does too).
func verifyNoalloc() error {
	prog, err := analysis.Load(".", []string{"./..."})
	if err != nil {
		return fmt.Errorf("loading repo for annotation index: %w", err)
	}
	index := analysis.BuildIndex(prog)

	annotated := make(map[string]map[string]bool) // gate -> funcs carrying it
	for _, r := range index.Regions {
		if r.Gate == "" {
			continue
		}
		if annotated[r.Gate] == nil {
			annotated[r.Gate] = make(map[string]bool)
		}
		annotated[r.Gate][r.FuncName] = true
	}

	var problems []string
	for gate, want := range noallocGates {
		have := annotated[gate]
		for _, fn := range want.funcs {
			if !have[fn] {
				problems = append(problems, fmt.Sprintf(
					"%s: //redvet:noalloc gate=%s annotation missing (its allocs are gated by %s)",
					fn, gate, want.measuredBy))
			}
		}
		for fn := range have {
			found := false
			for _, w := range want.funcs {
				if w == fn {
					found = true
					break
				}
			}
			if !found {
				problems = append(problems, fmt.Sprintf(
					"%s: carries gate=%s but is not in the verified gate table (add it to cmd/benchreport/verify.go)",
					fn, gate))
			}
		}
	}
	for gate := range annotated {
		if _, ok := noallocGates[gate]; !ok {
			problems = append(problems, fmt.Sprintf(
				"gate=%s is annotated in source but no benchreport measurement gates it", gate))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "verify-noalloc:", p)
	}
	if len(problems) > 0 {
		return errBelowTarget
	}

	gates := make([]string, 0, len(noallocGates))
	total := 0
	for g, w := range noallocGates {
		gates = append(gates, g)
		total += len(w.funcs)
	}
	sort.Strings(gates)
	fmt.Printf("verify-noalloc: %d annotated functions across %d gates verified: %v\n",
		total, len(gates), gates)
	return nil
}
