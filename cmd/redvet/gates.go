package main

import (
	"fmt"
	"go/token"
	"slices"
	"strings"

	"redhanded/internal/analysis"
)

// gateCheck is the check name gate-table findings are reported under.
const gateCheck = "noallocgate"

// noallocGates is the authoritative pairing between the //redvet:noalloc
// gate names annotated in source and the tier-1 test that measures 0
// allocations for those functions (testing.AllocsPerRun, so `go test
// ./...` enforces dynamically what the noalloc check proves statically).
// checkGates diffs this table against the annotations the analysis driver
// indexes, in both directions: deleting any single annotation, or
// inventing a gate no test measures, is a finding. When a hot path
// genuinely changes shape, this table is the reviewed place to record it.
var noallocGates = map[string]struct {
	measuredBy string   // "<package dir>.<Test name>" of the AllocsPerRun test
	funcs      []string // qualified functions that must carry the gate
}{
	"CompiledClassify": {
		measuredBy: "internal/stream.TestCompiledPredictZeroAlloc",
		funcs: []string{
			"redhanded/internal/stream.(*Compiled).PredictInto",
			"redhanded/internal/stream.(*Compiled).predictSLR",
			"redhanded/internal/stream.(*compiledTree).predictInto",
			"redhanded/internal/stream.naiveBayesInto",
		},
	},
	// A non-splitting train step and the freezing of its leaf into the
	// tree's arena; internal/core.TestLabeledProcessAllocs bounds the
	// labeled Process around them at the snapshot's 2 allocations.
	"TrainStep": {
		measuredBy: "internal/stream.TestTrainStepZeroAlloc",
		funcs: []string{
			"redhanded/internal/stream.(*HoeffdingTree).appendNaiveBayes",
			"redhanded/internal/stream.(*HoeffdingTree).attemptSplit",
			"redhanded/internal/stream.(*HoeffdingTree).freezeLeaf",
			"redhanded/internal/stream.(*HoeffdingTree).updateLeaf",
			"redhanded/internal/stream.(*gaussianObserver).bestSplit",
		},
	},
	"FeaturePathFast": {
		measuredBy: "internal/feature.TestExtractIntoZeroAlloc",
		funcs: []string{
			"redhanded/internal/feature.(*Extractor).ExtractInto",
			"redhanded/internal/feature.(*Extractor).extractFast",
			"redhanded/internal/feature.(*Extractor).scan",
			"redhanded/internal/feature.(*bowSnapshot).lookup",
			"redhanded/internal/feature.(*extractScratch).sentimentStep",
			"redhanded/internal/feature.hashWord",
			"redhanded/internal/feature.keyWords",
			"redhanded/internal/feature.shortWord",
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
		measuredBy: "internal/text.TestScanZeroAlloc",
		funcs: []string{
			"redhanded/internal/text.(*Scratch).Reset",
			"redhanded/internal/text.(*Scratch).Scan",
			"redhanded/internal/text.(*Scratch).ScanRaw",
			"redhanded/internal/text.(*Scratch).endSentence",
			"redhanded/internal/text.(*Scratch).field",
			"redhanded/internal/text.(*Scratch).fieldRaw",
			"redhanded/internal/text.fieldEnd",
			"redhanded/internal/text.letterRun",
			"redhanded/internal/text.load64",
			"redhanded/internal/text.spaceLen",
			"redhanded/internal/text.zeroBytes",
		},
	},
	"UserstateObserveHot": {
		measuredBy: "internal/userstate.TestObserveResidentUserZeroAlloc",
		funcs: []string{
			"redhanded/internal/userstate.(*Store).Observe",
			"redhanded/internal/userstate.(*Store).ObserveAlert",
			"redhanded/internal/userstate.(*Store).observe",
			"redhanded/internal/userstate.(*Store).observeLocked",
			"redhanded/internal/userstate.(*record).slide",
		},
	},
	"UserstateObserveChurn": {
		measuredBy: "internal/userstate.TestObserveChurnZeroAlloc",
		funcs: []string{
			"redhanded/internal/userstate.(*Store).evictClock",
			"redhanded/internal/userstate.(*Store).insert",
			"redhanded/internal/userstate.(*Store).sweep",
			"redhanded/internal/userstate.(*index).find",
			"redhanded/internal/userstate.(*index).insert",
			"redhanded/internal/userstate.(*index).move",
			"redhanded/internal/userstate.(*index).remove",
			"redhanded/internal/userstate.(*index).slotOf",
			"redhanded/internal/userstate.(*key).is",
			"redhanded/internal/userstate.(*key).set",
			"redhanded/internal/userstate.(*stripe).add",
			"redhanded/internal/userstate.(*stripe).remove",
		},
	},
	"SpanLifecycle": {
		measuredBy: "internal/obs.TestSpanLifecycleZeroAllocs",
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
		measuredBy: "internal/twitterdata.TestDecodeIntoZeroAlloc",
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
			"redhanded/internal/twitterdata.(*Decoder).tweetMember",
			"redhanded/internal/twitterdata.(*Decoder).userMember",
			"redhanded/internal/twitterdata.foldedField",
			"redhanded/internal/twitterdata.foldsToASCII",
			"redhanded/internal/twitterdata.keyMatches",
			"redhanded/internal/twitterdata.scanString",
		},
	},
	"FeatCacheLookup": {
		measuredBy: "internal/feature.TestCacheHitZeroAlloc",
		funcs: []string{
			"redhanded/internal/feature.(*Extractor).Lookup",
			"redhanded/internal/feature.(*Extractor).LookupCached",
			"redhanded/internal/feature.(*Extractor).fillProfile",
			"redhanded/internal/feature.(*extractCache).lookup",
			"redhanded/internal/feature.textHash",
			"redhanded/internal/twitterdata.(*Tweet).AccountAgeDays",
			"redhanded/internal/twitterdata.civilDays",
			"redhanded/internal/twitterdata.daysIn",
			"redhanded/internal/twitterdata.num2",
			"redhanded/internal/twitterdata.parseUnix",
		},
	},
	"NormalizeFold": {
		measuredBy: "internal/norm.TestNormalizeFoldZeroAlloc",
		funcs: []string{
			"redhanded/internal/norm.(*FeatureStats).Observe",
			"redhanded/internal/norm.(*Normalizer).Normalize",
			"redhanded/internal/norm.(*P2Quantile).Add",
			"redhanded/internal/norm.(*RangeStat).Add",
			"redhanded/internal/norm.(*Welford).Add",
		},
	},
	"SegmentRead": {
		measuredBy: "internal/ingestlog.TestSegmentReadZeroAlloc",
		funcs: []string{
			"redhanded/internal/ingestlog.(*Reader).Next",
			"redhanded/internal/ingestlog.frameAt",
			"redhanded/internal/ingestlog.scanSegment",
		},
	},
	"SSEEmit": {
		measuredBy: "internal/serve.TestAlertEgressZeroAlloc",
		funcs: []string{
			"redhanded/internal/serve.appendFrame",
			"redhanded/internal/serve.appendJSONFloat",
			"redhanded/internal/serve.appendJSONString",
			"redhanded/internal/serve.appendJSONTime",
			"redhanded/internal/serve.drainFrames",
		},
	},
}

// checkGates cross-references the gate-carrying //redvet:noalloc regions in
// index against noallocGates. An annotation the table does not list is
// reported where it stands; a listed function that lost its annotation is
// reported against its package, and only when that package is among the
// loaded ones, so running redvet on a subset of the repo stays quiet about
// the rest. These findings are not suppressible with //redvet:ignore.
func checkGates(prog *analysis.Program, index *analysis.Index) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	annotated := make(map[string]bool) // "gate\x00func"
	for _, r := range index.Regions {
		if r.Gate == "" {
			continue
		}
		annotated[r.Gate+"\x00"+r.FuncName] = true
		msg := ""
		if want, ok := noallocGates[r.Gate]; !ok {
			msg = fmt.Sprintf("gate=%s is annotated here but no test measures it: add it to the gate table in cmd/redvet/gates.go", r.Gate)
		} else if !slices.Contains(want.funcs, r.FuncName) {
			msg = fmt.Sprintf("%s carries gate=%s but is not in the gate table (cmd/redvet/gates.go)", r.FuncName, r.Gate)
		}
		if msg != "" {
			diags = append(diags, analysis.Diagnostic{Pos: prog.Fset.Position(r.Node.Pos()), Check: gateCheck, Msg: msg})
		}
	}
	dirs := make(map[string]string, len(prog.Pkgs))
	for _, pkg := range prog.Pkgs {
		dirs[pkg.ImportPath] = pkg.Dir
	}
	for gate, want := range noallocGates {
		for _, fn := range want.funcs {
			dir, loaded := dirs[packageOf(fn)]
			if loaded && !annotated[gate+"\x00"+fn] {
				diags = append(diags, analysis.Diagnostic{
					Pos:   token.Position{Filename: dir},
					Check: gateCheck,
					Msg:   fmt.Sprintf("%s: //redvet:noalloc gate=%s annotation missing (its allocations are gated by %s)", fn, gate, want.measuredBy),
				})
			}
		}
	}
	slices.SortFunc(diags, func(a, b analysis.Diagnostic) int { return strings.Compare(a.String(), b.String()) })
	return diags
}

// packageOf returns the import path of a qualified function name
// ("path/to/pkg.(*Recv).Name" or "path/to/pkg.Name").
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	return fn[:slash+1+strings.Index(fn[slash+1:], ".")]
}
