//! Executable kernel behaviours and the paper's special kernels.
//!
//! The graph (`tpdf_core::TpdfGraph`) says *when* a kernel may fire and
//! at which rates; a [`KernelBehavior`] says *what the firing computes*.
//! Applications register a behaviour per node name in a
//! [`KernelRegistry`]; nodes without a registered behaviour get the
//! built-in semantics:
//!
//! * **Select-Duplicate** kernels copy their input stream to every
//!   output selected by the current mode (speculation / forking — the
//!   copies are `Clone`s of [`Token`], so images are shared, not
//!   duplicated).
//! * **Transaction** kernels forward the tokens of the highest-priority
//!   input that participated in the firing; with `votes_required > 0`
//!   they first look for `votes_required` inputs that agree
//!   (redundancy with vote).
//! * **Regular** kernels and control actors forward their concatenated
//!   input tokens cyclically to each output (or emit [`Token::Unit`]
//!   markers when the firing consumed nothing), which keeps rate-only
//!   graphs — e.g. the Figure 2 running example — executable without any
//!   registration.
//!
//! When the built-ins forward a single input slab, the last output
//! whose rate equals the slab's length receives the slab itself by
//! swap; only the other outputs are filled with clones. A control
//! actor is the exception ([`FiringContext::emits_control`]): the
//! executor computes its mode from its inputs *after* the firing, so
//! its input slabs are never moved.
//!
//! # Writing a kernel
//!
//! A firing's data lives in slabs: each [`PortInput::tokens`] is the
//! slab popped from the channel ring, each [`PortOutput::tokens`] an
//! empty slab the executor already sized to the port's rate. A
//! behaviour reads its input slabs in place and pushes its results
//! straight into the output slabs — no intermediate `Vec` per firing.
//! For a one-in, one-out kernel whose rates are equal:
//!
//! ```
//! # use tpdf_runtime::{FiringContext, RuntimeError, Token};
//! fn negate(ctx: &mut FiringContext) -> Result<(), RuntimeError> {
//!     let FiringContext { inputs, outputs, .. } = ctx;
//!     for token in &inputs[0].tokens {
//!         outputs[0].tokens.push(Token::Int(-token.as_scalar()));
//!     }
//!     Ok(())
//! }
//! ```
//!
//! [`FiringContext::concatenated_inputs`] and
//! [`FiringContext::fill_outputs_cycling`] are the allocating
//! convenience path: a fresh concatenation in, clones of a finished
//! result cycled out — fine for coarse kernels (one image per firing),
//! a measurable cost for sample-per-token streams.

use crate::token::Token;
use crate::RuntimeError;
use std::collections::BTreeMap;
use std::sync::Arc;
use tpdf_core::mode::Mode;

/// The tokens one data-input port contributed to a firing.
///
/// `tokens` is one contiguous slab moved out of the channel ring as a
/// batch ([`crate::ring::RingBuffer::pop_into`]) — behaviours read it
/// as a slice, they never see per-element channel traffic.
#[derive(Debug, Clone)]
pub struct PortInput {
    /// Port index among the kernel's data inputs (declaration order).
    pub port: usize,
    /// Priority `α` of the port (higher wins Transaction selection).
    pub priority: u32,
    /// Channel label (e.g. `e6`), for diagnostics. Shared, not copied,
    /// so building a firing context costs no string allocation.
    pub channel: Arc<str>,
    /// The consumed tokens, oldest first.
    pub tokens: Vec<Token>,
}

impl PortInput {
    /// The consumed tokens as a slice.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }
}

/// One data-output port a firing must fill.
///
/// `tokens` becomes the slab pushed into the channel ring as one batch
/// ([`crate::ring::RingBuffer::push_from`]) when the firing completes.
#[derive(Debug, Clone)]
pub struct PortOutput {
    /// Port index among the kernel's data outputs (declaration order).
    pub port: usize,
    /// Channel label, for diagnostics. Shared, not copied.
    pub channel: Arc<str>,
    /// Number of tokens the firing must produce on this port.
    pub rate: u64,
    /// The produced tokens; must contain exactly `rate` tokens when the
    /// behaviour returns (pre-allocated to that capacity).
    pub tokens: Vec<Token>,
}

impl PortOutput {
    /// Replaces the port's tokens with clones of `slice` cycled to the
    /// required rate.
    pub fn write_cycled(&mut self, slice: &[Token]) {
        self.tokens.clear();
        write_cycled_into(&mut self.tokens, slice, self.rate);
    }
}

/// Everything a kernel behaviour sees and produces during one firing.
#[derive(Debug)]
pub struct FiringContext {
    /// Node name. Shared, not copied.
    pub node: Arc<str>,
    /// Global firing ordinal of this node (across iterations).
    pub ordinal: u64,
    /// The mode this firing executes in (from the control token, or
    /// [`Mode::WaitAll`] for unsteered kernels).
    pub mode: Mode,
    /// Data consumed, one entry per *selected* input port.
    pub inputs: Vec<PortInput>,
    /// Data to produce, one entry per output port of this firing.
    pub outputs: Vec<PortOutput>,
    /// Set by the executor when a real-time deadline forced this firing
    /// before any input was available.
    pub deadline_missed: bool,
    /// Set by the built-in Transaction behaviour when a vote could not
    /// reach `votes_required` agreeing inputs.
    pub vote_failed: bool,
    /// The mode this firing's control tokens carry, when the behaviour
    /// chose one itself (see [`FiringContext::set_mode`]). `None` lets
    /// the executor compute the mode from the configured
    /// [`tpdf_core::control::ModeSelector`].
    pub emitted_mode: Option<Mode>,
    /// Set by the executor when the node has control outputs. Unless
    /// the behaviour calls [`FiringContext::set_mode`], their mode is
    /// computed from `inputs` *after* the behaviour returns, so the
    /// input slabs must stay in place: the built-in forwarding clones
    /// instead of moving them.
    pub emits_control: bool,
}

impl FiringContext {
    /// The input entry of data port `port`, if it participated in this
    /// firing.
    pub fn input(&self, port: usize) -> Option<&PortInput> {
        self.inputs.iter().find(|p| p.port == port)
    }

    /// The token slab of data port `port`; empty when the port did not
    /// participate in this firing. Zero-copy: a slice view of the slab
    /// popped from the channel ring.
    pub fn input_tokens(&self, port: usize) -> &[Token] {
        self.input(port).map(|p| p.tokens.as_slice()).unwrap_or(&[])
    }

    /// All consumed tokens, port after port, oldest first.
    ///
    /// This allocates a fresh concatenation (the convenience path, see
    /// the [module docs](self)); behaviours should read
    /// [`PortInput::tokens`] or [`FiringContext::input_tokens`] in
    /// place instead.
    pub fn concatenated_inputs(&self) -> Vec<Token> {
        self.inputs
            .iter()
            .flat_map(|p| p.tokens.iter().cloned())
            .collect()
    }

    /// The scalar views of every consumed token, port after port, oldest
    /// first — the inputs a data-dependent mode selector reacts to.
    pub fn input_scalars(&self) -> Vec<i64> {
        let mut out = Vec::new();
        self.input_scalars_into(&mut out);
        out
    }

    /// Appends the scalar views of every consumed token to `out` — the
    /// allocation-free form of [`FiringContext::input_scalars`] the
    /// executor feeds from a reused per-worker buffer.
    pub fn input_scalars_into(&self, out: &mut Vec<i64>) {
        for p in &self.inputs {
            out.extend(p.tokens.iter().map(Token::as_scalar));
        }
    }

    /// Makes this firing's control tokens carry `mode`, overriding the
    /// executor's configured mode selector. Only meaningful for control
    /// actors (nodes with control outputs); cross-validation against
    /// `tpdf-sim` requires an equivalent selector + value trace on the
    /// simulation side.
    pub fn set_mode(&mut self, mode: Mode) {
        self.emitted_mode = Some(mode);
    }

    /// Fills every output port with clones of `source` cycled to its
    /// rate (or with [`Token::Unit`] markers when `source` is empty) —
    /// the allocating convenience path for a result computed into a
    /// separate buffer.
    pub fn fill_outputs_cycling(&mut self, source: &[Token]) {
        for out in &mut self.outputs {
            out.write_cycled(source);
        }
    }

    /// Fills every output port by cycling through the concatenated
    /// input stream *without materialising the concatenation* — the
    /// built-in forwarding semantics on the slab API. A single input
    /// slab is handed to an output of equal rate instead of cloned
    /// (see the [module docs](self)).
    pub fn fill_outputs_from_inputs(&mut self) {
        match self.inputs.len() {
            0 => self.forward_input(None),
            1 => self.forward_input(Some(0)),
            _ => {
                let total: usize = self.inputs.iter().map(|p| p.tokens.len()).sum();
                let (inputs, outputs) = (&self.inputs, &mut self.outputs);
                for out in outputs.iter_mut() {
                    out.tokens.clear();
                    if total == 0 {
                        out.tokens.resize(out.rate as usize, Token::Unit);
                    } else {
                        out.tokens.extend(
                            inputs
                                .iter()
                                .flat_map(|p| p.tokens.iter())
                                .cycle()
                                .take(out.rate as usize)
                                .cloned(),
                        );
                    }
                }
            }
        }
    }

    /// Forwards the slab of input `index` (unit markers for `None`) to
    /// every output. The last output whose rate equals the slab's
    /// length takes the slab itself by swap, leaving the output's empty
    /// pre-sized slab behind in the input; the other outputs get cycled
    /// clones. Nothing moves when the node [emits
    /// control](FiringContext::emits_control).
    fn forward_input(&mut self, index: Option<usize>) {
        let mut no_input = Vec::new();
        let FiringContext {
            inputs,
            outputs,
            emits_control,
            ..
        } = self;
        let source = match index {
            Some(i) => &mut inputs[i].tokens,
            None => &mut no_input,
        };
        let moved = if *emits_control {
            None
        } else {
            outputs
                .iter()
                .rposition(|out| out.rate as usize == source.len())
        };
        for (at, out) in outputs.iter_mut().enumerate() {
            out.tokens.clear();
            if Some(at) != moved {
                write_cycled_into(&mut out.tokens, source, out.rate);
            }
        }
        if let Some(at) = moved {
            std::mem::swap(&mut outputs[at].tokens, source);
        }
    }
}

/// Appends `rate` tokens to `out` by cycling through `source`;
/// [`Token::Unit`] markers when `source` is empty. Whole-slice rounds
/// go through `extend_from_slice` (a clone-from-slice specialisation),
/// only the final partial round clones token by token.
fn write_cycled_into(out: &mut Vec<Token>, source: &[Token], rate: u64) {
    let rate = rate as usize;
    if source.is_empty() {
        out.resize(out.len() + rate, Token::Unit);
        return;
    }
    out.reserve(rate);
    let mut remaining = rate;
    while remaining >= source.len() {
        out.extend_from_slice(source);
        remaining -= source.len();
    }
    out.extend_from_slice(&source[..remaining]);
}

/// What a node computes when it fires.
pub trait KernelBehavior: Send + Sync {
    /// Executes one firing: reads `ctx.inputs`, fills `ctx.outputs`.
    ///
    /// # Errors
    ///
    /// Implementations report unrecoverable application errors as
    /// [`RuntimeError::KernelFailed`]; the executor aborts the run.
    fn fire(&self, ctx: &mut FiringContext) -> Result<(), RuntimeError>;
}

/// Wraps a closure as a [`KernelBehavior`].
struct FnBehavior<F>(F);

impl<F> KernelBehavior for FnBehavior<F>
where
    F: Fn(&mut FiringContext) -> Result<(), RuntimeError> + Send + Sync,
{
    fn fire(&self, ctx: &mut FiringContext) -> Result<(), RuntimeError> {
        (self.0)(ctx)
    }
}

/// Maps node names to their executable behaviour.
///
/// Behaviours are stored behind [`Arc`], so cloning a registry is
/// cheap (it shares the behaviours) — the persistent
/// [`crate::pool::ExecutorPool`] clones the registry into each
/// submitted run so its long-lived workers never borrow caller state.
#[derive(Default, Clone)]
pub struct KernelRegistry {
    behaviors: BTreeMap<String, Arc<dyn KernelBehavior>>,
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("nodes", &self.behaviors.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl KernelRegistry {
    /// Creates an empty registry (every node gets built-in semantics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a behaviour for the named node.
    pub fn register(&mut self, node: impl Into<String>, behavior: Box<dyn KernelBehavior>) {
        self.behaviors.insert(node.into(), Arc::from(behavior));
    }

    /// Registers a closure as the behaviour of the named node.
    pub fn register_fn<F>(&mut self, node: impl Into<String>, f: F)
    where
        F: Fn(&mut FiringContext) -> Result<(), RuntimeError> + Send + Sync + 'static,
    {
        self.register(node, Box::new(FnBehavior(f)));
    }

    /// The behaviour registered for `node`, if any.
    pub fn get(&self, node: &str) -> Option<&dyn KernelBehavior> {
        self.behaviors.get(node).map(|b| b.as_ref())
    }

    /// Number of registered behaviours.
    pub fn len(&self) -> usize {
        self.behaviors.len()
    }

    /// Returns `true` when no behaviour is registered.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
    }
}

/// Built-in semantics of the Select-Duplicate kernel: every selected
/// output receives a copy of the input stream.
pub(crate) fn fire_select_duplicate(ctx: &mut FiringContext) {
    ctx.fill_outputs_from_inputs();
}

/// Built-in semantics of the Transaction kernel: vote when configured,
/// then forward the winning input's slab.
pub(crate) fn fire_transaction(ctx: &mut FiringContext, votes_required: u32) {
    let mut winner = None;
    if votes_required > 0 {
        winner = winning_vote(&ctx.inputs, votes_required);
        ctx.vote_failed = winner.is_none();
    }
    // No vote (or a failed one): the highest-priority participating
    // input.
    let winner = winner.or_else(|| {
        ctx.inputs
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.priority)
            .map(|(index, _)| index)
    });
    ctx.forward_input(winner);
}

/// The index of an input whose token stream at least `votes_required`
/// inputs share, if any (ties broken towards higher priority).
fn winning_vote(inputs: &[PortInput], votes_required: u32) -> Option<usize> {
    let mut candidates: Vec<usize> = (0..inputs.len()).collect();
    candidates.sort_by_key(|&i| std::cmp::Reverse(inputs[i].priority));
    candidates.into_iter().find(|&i| {
        let agreeing = inputs
            .iter()
            .filter(|other| other.tokens == inputs[i].tokens)
            .count() as u32;
        agreeing >= votes_required
    })
}

/// Built-in semantics of regular kernels and control actors: forward
/// inputs cyclically (unit markers when nothing was consumed).
pub(crate) fn fire_default(ctx: &mut FiringContext) {
    ctx.fill_outputs_from_inputs();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(inputs: Vec<PortInput>, rates: &[u64]) -> FiringContext {
        FiringContext {
            node: Arc::from("t"),
            ordinal: 0,
            mode: Mode::WaitAll,
            inputs,
            outputs: rates
                .iter()
                .enumerate()
                .map(|(port, &rate)| PortOutput {
                    port,
                    channel: Arc::from(format!("o{port}").as_str()),
                    rate,
                    tokens: Vec::new(),
                })
                .collect(),
            deadline_missed: false,
            vote_failed: false,
            emitted_mode: None,
            emits_control: false,
        }
    }

    fn port(port: usize, priority: u32, tokens: Vec<Token>) -> PortInput {
        PortInput {
            port,
            priority,
            channel: Arc::from(format!("i{port}").as_str()),
            tokens,
        }
    }

    #[test]
    fn input_slices_are_zero_copy_views() {
        let ctx = ctx_with(vec![port(1, 0, vec![Token::Int(4), Token::Int(5)])], &[1]);
        assert_eq!(
            ctx.input_tokens(1),
            &[Token::Int(4), Token::Int(5)],
            "selected port exposes its slab"
        );
        assert!(ctx.input_tokens(0).is_empty(), "unselected port is empty");
        assert_eq!(ctx.input(1).unwrap().tokens(), ctx.input_tokens(1));
    }

    #[test]
    fn select_duplicate_copies_to_every_output() {
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(7)])], &[1, 1, 2]);
        fire_select_duplicate(&mut ctx);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(7)]);
        assert_eq!(ctx.outputs[1].tokens, vec![Token::Int(7)]);
        assert_eq!(ctx.outputs[2].tokens, vec![Token::Int(7), Token::Int(7)]);
    }

    #[test]
    fn transaction_forwards_highest_priority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 1, vec![Token::Int(1)]),
                port(1, 3, vec![Token::Int(3)]),
                port(2, 2, vec![Token::Int(2)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 0);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(3)]);
        assert!(!ctx.vote_failed);
    }

    #[test]
    fn transaction_vote_picks_majority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 3, vec![Token::Int(9)]), // outlier with top priority
                port(1, 2, vec![Token::Int(5)]),
                port(2, 1, vec![Token::Int(5)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 2);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(5)]);
        assert!(!ctx.vote_failed);
    }

    #[test]
    fn transaction_vote_failure_falls_back_to_priority() {
        let mut ctx = ctx_with(
            vec![
                port(0, 1, vec![Token::Int(1)]),
                port(1, 2, vec![Token::Int(2)]),
                port(2, 3, vec![Token::Int(3)]),
            ],
            &[1],
        );
        fire_transaction(&mut ctx, 2);
        assert!(ctx.vote_failed);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(3)]);
    }

    #[test]
    fn transaction_with_no_inputs_emits_unit_markers() {
        let mut ctx = ctx_with(Vec::new(), &[2]);
        fire_transaction(&mut ctx, 0);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Unit, Token::Unit]);
    }

    #[test]
    fn transaction_hands_over_the_winning_slab_when_the_rate_matches() {
        let winner = vec![Token::Int(3), Token::Int(4)];
        let slab = winner.as_ptr();
        let mut ctx = ctx_with(
            vec![
                port(0, 1, vec![Token::Int(1), Token::Int(2)]),
                port(1, 3, winner),
            ],
            &[2],
        );
        fire_transaction(&mut ctx, 0);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(3), Token::Int(4)]);
        assert_eq!(
            ctx.outputs[0].tokens.as_ptr(),
            slab,
            "slab moved, not copied"
        );
        assert!(ctx.inputs[1].tokens.is_empty());

        // A rate that differs from the slab length still cycles clones.
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(5), Token::Int(6)])], &[3]);
        let slab = ctx.inputs[0].tokens.as_ptr();
        fire_transaction(&mut ctx, 0);
        assert_eq!(
            ctx.outputs[0].tokens,
            vec![Token::Int(5), Token::Int(6), Token::Int(5)]
        );
        assert_eq!(ctx.inputs[0].tokens.as_ptr(), slab, "input slab kept");
    }

    #[test]
    fn select_duplicate_moves_into_the_last_matching_output_only() {
        let mut ctx = ctx_with(
            vec![port(0, 0, vec![Token::Int(7), Token::Int(8)])],
            &[2, 2, 3],
        );
        let slab = ctx.inputs[0].tokens.as_ptr();
        fire_select_duplicate(&mut ctx);
        let pair = vec![Token::Int(7), Token::Int(8)];
        assert_eq!(ctx.outputs[0].tokens, pair);
        assert_eq!(ctx.outputs[1].tokens, pair);
        assert_eq!(
            ctx.outputs[2].tokens,
            vec![Token::Int(7), Token::Int(8), Token::Int(7)]
        );
        assert_ne!(
            ctx.outputs[0].tokens.as_ptr(),
            slab,
            "earlier output cloned"
        );
        assert_eq!(
            ctx.outputs[1].tokens.as_ptr(),
            slab,
            "last matching output moved"
        );
    }

    #[test]
    fn control_actors_keep_their_input_slabs() {
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(2)])], &[1]);
        ctx.emits_control = true;
        let slab = ctx.inputs[0].tokens.as_ptr();
        fire_default(&mut ctx);
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(2)]);
        assert_eq!(ctx.inputs[0].tokens.as_ptr(), slab);
        assert_eq!(
            ctx.input_scalars(),
            vec![2],
            "the mode selector still sees it"
        );
    }

    #[test]
    fn default_forwards_cyclically() {
        let mut ctx = ctx_with(vec![port(0, 0, vec![Token::Int(1), Token::Int(2)])], &[5]);
        fire_default(&mut ctx);
        assert_eq!(
            ctx.outputs[0].tokens,
            vec![
                Token::Int(1),
                Token::Int(2),
                Token::Int(1),
                Token::Int(2),
                Token::Int(1)
            ]
        );
    }

    #[test]
    fn input_scalars_and_mode_override() {
        let mut ctx = ctx_with(
            vec![
                port(0, 0, vec![Token::Int(4), Token::Unit]),
                port(1, 0, vec![Token::Byte(2)]),
            ],
            &[1],
        );
        assert_eq!(ctx.input_scalars(), vec![4, 0, 2]);
        assert_eq!(ctx.emitted_mode, None);
        ctx.set_mode(Mode::SelectOne(1));
        assert_eq!(ctx.emitted_mode, Some(Mode::SelectOne(1)));
    }

    #[test]
    fn registry_round_trip() {
        let mut registry = KernelRegistry::new();
        assert!(registry.is_empty());
        registry.register_fn("a", |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(42)]);
            Ok(())
        });
        assert_eq!(registry.len(), 1);
        assert!(registry.get("a").is_some());
        assert!(registry.get("b").is_none());
        let mut ctx = ctx_with(Vec::new(), &[1]);
        registry.get("a").unwrap().fire(&mut ctx).unwrap();
        assert_eq!(ctx.outputs[0].tokens, vec![Token::Int(42)]);
        assert!(format!("{registry:?}").contains("a"));
    }
}
