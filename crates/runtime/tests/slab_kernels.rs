//! The slab-native case-study kernels against their references: the
//! Figure 7 OFDM registry must reproduce the graph-free demodulation
//! token for token across its parameter space and thread counts, and
//! every OFDM kernel must turn a malformed sample into a structured
//! `KernelFailed` naming itself rather than a panic.

use proptest::prelude::*;
use std::sync::Arc;
use tpdf_apps::ofdm::OfdmConfig;
use tpdf_core::mode::Mode;
use tpdf_runtime::kernel::{PortInput, PortOutput};
use tpdf_runtime::{
    Executor, FiringContext, KernelRegistry, OfdmRuntime, RuntimeConfig, RuntimeError, Token,
};

/// Fires the registered behaviour of `node` once on one input slab
/// of `tokens`, with one output port of `rate`.
fn fire_once(
    registry: &KernelRegistry,
    node: &str,
    tokens: Vec<Token>,
    rate: u64,
) -> Result<(), RuntimeError> {
    let mut ctx = FiringContext {
        node: Arc::from(node),
        ordinal: 0,
        mode: Mode::WaitAll,
        inputs: vec![PortInput {
            port: 0,
            priority: 0,
            channel: Arc::from("in"),
            tokens,
        }],
        outputs: vec![PortOutput {
            port: 0,
            channel: Arc::from("out"),
            rate,
            tokens: Vec::with_capacity(rate as usize),
        }],
        deadline_missed: false,
        vote_failed: false,
        emitted_mode: None,
        emits_control: false,
    };
    registry.get(node).expect("registered").fire(&mut ctx)
}

#[test]
fn ofdm_kernels_reject_non_complex_samples_by_name() {
    let config = OfdmConfig {
        symbol_len: 16,
        cyclic_prefix: 2,
        bits_per_symbol: 2,
        vectorization: 2,
    };
    let (registry, _capture) = OfdmRuntime::new(config, 1).registry();
    for (node, consumed, produced) in [
        ("RCP", 36, 32),
        ("FFT", 32, 32),
        ("QPSK", 32, 64),
        ("QAM", 32, 128),
    ] {
        let bad = Token::Byte(1);
        let bytes = vec![bad.clone(); consumed];
        match fire_once(&registry, node, bytes, produced) {
            Err(RuntimeError::KernelFailed {
                node: failed,
                message,
            }) => {
                assert_eq!(failed, node);
                assert!(message.contains(&bad.to_string()), "{node}: {message}");
            }
            other => panic!("{node}: expected KernelFailed, got {other:?}"),
        }
    }
}

proptest! {
    /// The slab-native kernels reproduce the graph-free reference
    /// demodulation token for token across constellations, symbol
    /// lengths, cyclic prefixes and vectorisations, on 1 and 2
    /// worker threads.
    #[test]
    fn prop_ofdm_sink_stream_equals_reference(
        m in prop::sample::select(vec![2usize, 4]),
        n in prop::sample::select(vec![16usize, 64, 256]),
        cp in 0usize..5,
        beta in 1usize..9,
        seed in 0u64..1000,
    ) {
        let port = OfdmRuntime::new(
            OfdmConfig {
                symbol_len: n,
                cyclic_prefix: cp,
                bits_per_symbol: m,
                vectorization: beta,
            },
            seed,
        );
        let expected: Vec<Token> = port.reference_bits().into_iter().map(Token::Byte).collect();
        let graph = port.graph();
        for threads in [1, 2] {
            let (registry, capture) = port.registry();
            let config = RuntimeConfig::new(port.config().binding())
                .with_threads(threads)
                .with_mode_selector(port.mode_selector())
                .with_value_trace(port.value_trace());
            Executor::new(&graph, config).unwrap().run(&registry).unwrap();
            prop_assert_eq!(capture.take_tokens(), expected.clone());
        }
    }
}
