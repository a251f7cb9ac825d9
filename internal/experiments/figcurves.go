package experiments

import (
	"fmt"
	"io"

	"redhanded/internal/core"
	"redhanded/internal/norm"
)

func init() {
	register("fig6", "F1 for HT with preprocessing ON/OFF (2- and 3-class)", runFig6)
	register("fig7", "F1 for HT with normalization ON/OFF (2- and 3-class)", runFig7)
	register("fig8", "F1 for SLR with normalization ON/OFF (2- and 3-class)", runFig8)
	register("fig9", "F1 for HT with adaptive BoW ON/OFF (2- and 3-class)", runFig9)
	register("fig11", "F1 for HT, ARF, SLR on the 3-class problem", runFig11)
	register("fig12", "F1 for HT, ARF, SLR on the 2-class problem", runFig12)
}

// variant is one curve in an ablation figure.
type variant struct {
	name string
	opts core.Options
}

// runCurves executes the variants over the shared dataset and tabulates
// their F1 curves.
func runCurves(cfg Config, w io.Writer, title string, variants []variant) error {
	data := AggressionDataset(cfg)
	var series []Series
	for _, v := range variants {
		p := runPipeline(v.opts, data)
		series = append(series, Series{Name: v.name, Points: p.Evaluator().Curve()})
		final := p.Summary()
		fmt.Fprintf(w, "final %-34s F1=%.4f acc=%.4f\n", v.name, final.F1, final.Accuracy)
	}
	step := int64(5000 * cfg.Scale)
	if step < 100 {
		step = 100
	}
	CurveTable(title, series, step).Print(w)
	return nil
}

// toggleName renders the figure legend notation, e.g.
// "HT, p=ON, n=ON, ad=ON, c=3".
func toggleName(model core.ModelKind, opts core.Options) string {
	return fmt.Sprintf("%v, p=%s, n=%s, ad=%s, %v",
		model, onOff(opts.Preprocess), onOff(opts.Normalization != norm.None),
		onOff(opts.AdaptiveBoW), opts.Scheme)
}

func runFig6(cfg Config, w io.Writer) error {
	return runCurves(cfg, w, "Fig. 6: effect of preprocessing on HT", fig6Variants(cfg))
}

// fig6Variants are Fig. 6's curves: HT with preprocessing OFF and ON, on
// the 3- and the 2-class problem.
func fig6Variants(cfg Config) []variant {
	var variants []variant
	for _, scheme := range []core.ClassScheme{core.ThreeClass, core.TwoClass} {
		for _, pre := range []bool{false, true} {
			opts := baseOptions(cfg, scheme, core.ModelHT)
			opts.Preprocess = pre
			variants = append(variants, variant{toggleName(core.ModelHT, opts), opts})
		}
	}
	return variants
}

func runFig7(cfg Config, w io.Writer) error {
	var variants []variant
	for _, scheme := range []core.ClassScheme{core.ThreeClass, core.TwoClass} {
		for _, mode := range []norm.Mode{norm.None, norm.MinMaxRobust} {
			opts := baseOptions(cfg, scheme, core.ModelHT)
			opts.Normalization = mode
			variants = append(variants, variant{toggleName(core.ModelHT, opts), opts})
		}
	}
	return runCurves(cfg, w, "Fig. 7: effect of normalization on HT", variants)
}

func runFig8(cfg Config, w io.Writer) error {
	var variants []variant
	for _, scheme := range []core.ClassScheme{core.ThreeClass, core.TwoClass} {
		for _, mode := range []norm.Mode{norm.None, norm.MinMaxRobust} {
			opts := baseOptions(cfg, scheme, core.ModelSLR)
			opts.Normalization = mode
			variants = append(variants, variant{toggleName(core.ModelSLR, opts), opts})
		}
	}
	return runCurves(cfg, w, "Fig. 8: effect of normalization on SLR", variants)
}

func runFig9(cfg Config, w io.Writer) error {
	var variants []variant
	for _, scheme := range []core.ClassScheme{core.ThreeClass, core.TwoClass} {
		for _, adaptive := range []bool{false, true} {
			opts := baseOptions(cfg, scheme, core.ModelHT)
			opts.AdaptiveBoW = adaptive
			variants = append(variants, variant{toggleName(core.ModelHT, opts), opts})
		}
	}
	return runCurves(cfg, w, "Fig. 9: effect of the adaptive bag-of-words on HT", variants)
}

func runFig11(cfg Config, w io.Writer) error {
	var variants []variant
	for _, model := range []core.ModelKind{core.ModelHT, core.ModelARF, core.ModelSLR} {
		opts := baseOptions(cfg, core.ThreeClass, model)
		variants = append(variants, variant{toggleName(model, opts), opts})
	}
	return runCurves(cfg, w, "Fig. 11: streaming methods on the 3-class problem", variants)
}

func runFig12(cfg Config, w io.Writer) error {
	var variants []variant
	for _, model := range []core.ModelKind{core.ModelHT, core.ModelARF, core.ModelSLR} {
		opts := baseOptions(cfg, core.TwoClass, model)
		variants = append(variants, variant{toggleName(model, opts), opts})
	}
	return runCurves(cfg, w, "Fig. 12: streaming methods on the 2-class problem", variants)
}
