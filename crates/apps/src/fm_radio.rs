//! An FM-radio-like StreamIt-style benchmark (Section IV-B mentions that
//! "several StreamIt benchmarks (e.g. FM Radio) must perform redundant
//! calculations that are not needed with models allowing dynamic topology
//! changes such as TPDF").
//!
//! The pipeline is the classic StreamIt shape: an RF source, a low-pass
//! filter, an FM demodulator and a multi-band equalizer whose bands are
//! summed into the audio output. The CSDF version always computes every
//! band; the TPDF version adds a control actor that enables only the
//! bands selected by the current audio profile, so the unselected bands'
//! edges disappear from the iteration.

use crate::dsp::Complex;
use serde::{Deserialize, Serialize};
use tpdf_core::actors::KernelKind;
use tpdf_core::graph::TpdfGraph;
use tpdf_core::rate::RateSeq;
use tpdf_sim::buffer_analysis::{compare_buffers, BufferComparison, PortSelection};
use tpdf_symexpr::Binding;

/// Configuration of the FM-radio benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FmRadioConfig {
    /// Number of equalizer bands (StreamIt uses around 10).
    pub bands: usize,
    /// Samples processed per activation (vectorization).
    pub block: usize,
}

impl Default for FmRadioConfig {
    fn default() -> Self {
        FmRadioConfig {
            bands: 10,
            block: 64,
        }
    }
}

/// The FM-radio benchmark: graphs plus a minimal executable pipeline.
#[derive(Debug, Clone)]
pub struct FmRadio {
    config: FmRadioConfig,
}

impl FmRadio {
    /// Creates the benchmark for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero bands or a zero block size.
    pub fn new(config: FmRadioConfig) -> Self {
        assert!(config.bands > 0, "at least one equalizer band is required");
        assert!(config.block > 0, "block size must be positive");
        FmRadio { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FmRadioConfig {
        &self.config
    }

    /// The parameter binding of the graphs (`B` = block size).
    pub fn binding(&self) -> Binding {
        Binding::from_pairs([("B", self.config.block as i64)])
    }

    /// Builds the TPDF graph: `src → lowpass → demod → dup → band_i →
    /// sum → sink`, with a control actor enabling a subset of bands on
    /// the summing Transaction kernel.
    pub fn tpdf_graph(&self) -> TpdfGraph {
        let block = RateSeq::param("B");
        let mut b = TpdfGraph::builder()
            .parameter("B")
            .kernel_with("src", KernelKind::Regular, 2)
            .kernel_with("lowpass", KernelKind::Regular, 4)
            .kernel_with("demod", KernelKind::Regular, 3)
            .kernel_with("dup", KernelKind::SelectDuplicate, 1)
            .control_with("profile", 1)
            .kernel_with("sum", KernelKind::Transaction { votes_required: 0 }, 2)
            .kernel_with("sink", KernelKind::Regular, 1)
            .channel("src", "lowpass", block.clone(), block.clone(), 0)
            .channel("lowpass", "demod", block.clone(), block.clone(), 0)
            .channel("demod", "dup", block.clone(), block.clone(), 0)
            .channel(
                "src",
                "profile",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
            )
            .control_channel("profile", "sum", RateSeq::constant(1), RateSeq::constant(1))
            .channel("sum", "sink", block.clone(), block.clone(), 0);
        for i in 0..self.config.bands {
            let name = format!("band{i}");
            b = b
                .kernel_with(&name, KernelKind::Regular, 5)
                .channel("dup", &name, block.clone(), block.clone(), 0)
                .channel_with_priority(&name, "sum", block.clone(), block.clone(), 0, i as u32 + 1);
        }
        b.build().expect("FM radio graph is well-formed")
    }

    /// The CSDF baseline is simply the same graph with every edge kept;
    /// obtained through [`TpdfGraph::to_csdf`], it computes every band on
    /// every iteration.
    pub fn csdf_graph(&self) -> tpdf_csdf::CsdfGraph {
        self.tpdf_graph()
            .to_csdf(&self.binding())
            .expect("FM radio graph converts to CSDF")
    }

    /// Buffer comparison when only `active_band` is enabled by the
    /// control actor (the other bands' results are never used).
    ///
    /// # Errors
    ///
    /// Returns an error if the analysis fails.
    pub fn buffer_comparison(
        &self,
        active_band: usize,
    ) -> Result<BufferComparison, tpdf_sim::SimError> {
        let selection = PortSelection::from([("sum".to_string(), active_band)]);
        compare_buffers(&self.tpdf_graph(), &self.binding(), &selection)
    }

    /// FM-demodulates a block of complex baseband samples by phase
    /// differentiation (the `demod` kernel).
    pub fn fm_demodulate(samples: &[Complex]) -> Vec<f64> {
        let mut out = Vec::with_capacity(samples.len());
        let mut previous = Complex::new(1.0, 0.0);
        for &s in samples {
            out.push(Self::phase_step(previous, s));
            previous = s;
        }
        out
    }

    /// The phase advance from `previous` to `current`, via
    /// conj(previous) · current — one demodulated audio sample.
    pub fn phase_step(previous: Complex, current: Complex) -> f64 {
        let rotated = Complex::new(previous.re, -previous.im).mul(current);
        rotated.im.atan2(rotated.re)
    }

    /// A simple moving-average low-pass FIR (the `lowpass` kernel).
    pub fn low_pass(samples: &[f64], taps: usize) -> Vec<f64> {
        assert!(taps > 0, "FIR needs at least one tap");
        let mut out = Vec::with_capacity(samples.len());
        for i in 0..samples.len() {
            let start = i.saturating_sub(taps - 1);
            let window = &samples[start..=i];
            out.push(window.iter().sum::<f64>() / window.len() as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::random_samples;
    use tpdf_core::analysis::analyze;
    use tpdf_csdf::repetition_vector;

    #[test]
    fn graphs_are_consistent_and_bounded() {
        let radio = FmRadio::new(FmRadioConfig::default());
        let g = radio.tpdf_graph();
        assert_eq!(g.node_count(), 7 + 10);
        let report = analyze(&g).unwrap();
        assert!(report.is_bounded());
        let csdf = radio.csdf_graph();
        let q = repetition_vector(&csdf).unwrap();
        assert!(q.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn dynamic_topology_saves_buffers() {
        let radio = FmRadio::new(FmRadioConfig {
            bands: 8,
            block: 32,
        });
        let cmp = radio.buffer_comparison(0).unwrap();
        assert!(cmp.tpdf_total < cmp.csdf_total);
        // With only 1 of 8 bands active the saving is substantial.
        assert!(cmp.improvement_percent > 25.0, "{cmp:?}");
    }

    #[test]
    fn more_bands_more_savings() {
        let few = FmRadio::new(FmRadioConfig {
            bands: 4,
            block: 32,
        })
        .buffer_comparison(0)
        .unwrap();
        let many = FmRadio::new(FmRadioConfig {
            bands: 16,
            block: 32,
        })
        .buffer_comparison(0)
        .unwrap();
        assert!(many.improvement_percent > few.improvement_percent);
    }

    #[test]
    #[should_panic(expected = "at least one equalizer band")]
    fn zero_bands_panics() {
        let _ = FmRadio::new(FmRadioConfig { bands: 0, block: 8 });
    }

    #[test]
    fn fm_demodulation_of_constant_tone() {
        // A constant-frequency complex exponential demodulates to a
        // constant phase increment.
        let freq = 0.1f64;
        let samples: Vec<Complex> = (0..64)
            .map(|i| {
                let phase = freq * i as f64;
                Complex::new(phase.cos(), phase.sin())
            })
            .collect();
        let demod = FmRadio::fm_demodulate(&samples);
        for &d in &demod[1..] {
            assert!((d - freq).abs() < 1e-9, "got {d}");
        }
    }

    #[test]
    fn low_pass_smooths() {
        let radio_samples: Vec<f64> = random_samples(128, 3).iter().map(|c| c.re).collect();
        let filtered = FmRadio::low_pass(&radio_samples, 8);
        assert_eq!(filtered.len(), radio_samples.len());
        let var = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&filtered) < var(&radio_samples));
    }
}
