package surfnet

import (
	"surfnet/internal/experiments"
)

// ExperimentConfig parameterizes the network experiments (Fig. 6, Fig. 7).
type ExperimentConfig = experiments.Config

// DefaultExperiments returns interactively sized experiment settings; raise
// Trials toward the paper's 1080 for publication-grade error bars.
func DefaultExperiments() ExperimentConfig { return experiments.DefaultConfig() }

// Fig6aRow is one cell of the Fig. 6(a) Raw-vs-SurfNet comparison.
type Fig6aRow = experiments.Fig6aRow

// Fig6a reproduces the Fig. 6(a) tables and fidelity plots.
func Fig6a(cfg ExperimentConfig) ([]Fig6aRow, error) { return experiments.Fig6a(cfg) }

// SweepPoint is one x-value of a Fig. 6(b) parameter sweep.
type SweepPoint = experiments.SweepPoint

// Fig6b1 sweeps facility capacity (Fig. 6(b.1)); nil selects the defaults.
func Fig6b1(cfg ExperimentConfig, factors []float64) ([]SweepPoint, error) {
	return experiments.Fig6b1(cfg, factors)
}

// Fig6b2 sweeps the entanglement generation rate (Fig. 6(b.2)).
func Fig6b2(cfg ExperimentConfig, factors []float64) ([]SweepPoint, error) {
	return experiments.Fig6b2(cfg, factors)
}

// Fig6b3 sweeps messages per request (Fig. 6(b.3)).
func Fig6b3(cfg ExperimentConfig, messages []int) ([]SweepPoint, error) {
	return experiments.Fig6b3(cfg, messages)
}

// Fig6b4 sweeps the routing fidelity threshold 1/2^Wc (Fig. 6(b.4)).
func Fig6b4(cfg ExperimentConfig, coreThresholds []float64) ([]SweepPoint, error) {
	return experiments.Fig6b4(cfg, coreThresholds)
}

// Fig7Row is one bar of the five-design fidelity comparison.
type Fig7Row = experiments.Fig7Row

// Fig7 reproduces the overall comparison of all five designs across the four
// facility/connection scenarios.
func Fig7(cfg ExperimentConfig) ([]Fig7Row, error) { return experiments.Fig7(cfg) }

// Fig8Config parameterizes the decoder threshold study.
type Fig8Config = experiments.Fig8Config

// DefaultFig8 returns the paper's Fig. 8 settings (d = 9..15, p = 5-8.5%,
// erasure 15%, Union-Find vs SurfNet Decoder).
func DefaultFig8() Fig8Config { return experiments.DefaultFig8Config() }

// Fig8Point is one point of a Fig. 8 threshold curve.
type Fig8Point = experiments.Fig8Point

// Fig8 reproduces the decoder threshold plots.
func Fig8(cfg Fig8Config) ([]Fig8Point, error) { return experiments.Fig8(cfg) }

// FormatFig6a renders the Fig. 6(a) comparison as an aligned text table.
func FormatFig6a(rows []Fig6aRow) string { return experiments.FormatFig6a(rows) }

// FormatSweep renders a Fig. 6(b) sweep with a caller-supplied x label.
func FormatSweep(xLabel string, points []SweepPoint) string {
	return experiments.FormatSweep(xLabel, points)
}

// FormatFig7 renders the five-design fidelity comparison.
func FormatFig7(rows []Fig7Row) string { return experiments.FormatFig7(rows) }

// FormatFig8 renders the threshold study, one block per decoder.
func FormatFig8(points []Fig8Point) string { return experiments.FormatFig8(points) }

// ResilienceRow is one cell of the fault-intensity resilience sweep.
type ResilienceRow = experiments.ResilienceRow

// Resilience sweeps fault intensity for SurfNet against the Raw and
// purification-2 baselines; nil selects the default intensities.
func Resilience(cfg ExperimentConfig, intensities []float64) ([]ResilienceRow, error) {
	return experiments.Resilience(cfg, intensities)
}

// FormatResilience renders the resilience sweep as an aligned text table.
func FormatResilience(rows []ResilienceRow) string { return experiments.FormatResilience(rows) }
