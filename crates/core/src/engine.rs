//! The end-to-end secure inference engine.
//!
//! Executes an [`aq2pnn_nn::quant::QuantModel`] between the two parties,
//! following the paper's per-block workflow (Fig. 8): shares live on the
//! activation carrier `Q1` between operators; each linear operator widens
//! them to the MAC ring `Q2` (ring-size extension, step ④), runs
//! 2PC-Conv2D / 2PC-Linear over AS-GEMM (steps ⑤–⑥), requantizes through
//! 2PC-BNReQ (step ⑦) back to `Q1`, and non-linearities run through
//! ABReLU / the SCM (step ⑨).
//!
//! ## Offline share distribution
//!
//! Weight and input shares are derived from a PRG stream seeded by the
//! session's `setup_seed`: party 0's weight share is pure PRG output (so
//! it never needs — and never sees — the plaintext weights), and party 1
//! holds `w − PRG(seed)`. The input is shared symmetrically in the other
//! direction. This models the paper's pre-deployed AS-WGT / AS-INP
//! buffers; in the simulator both parties receive the same `QuantModel`
//! struct, but the engine reads plaintext weights only on the
//! model-provider side and the plaintext image only on the user side.
//!
//! The input-independent part of that work — weight share derivation, GEMM
//! layout transposition, triple-lane creation, the one-time `offline-f`
//! weight-mask openings — lives in [`crate::prepared`]. The online path is
//! [`crate::prepared::PreparedModel::run_batch`]: each party prepares once
//! per session and then runs `B ≥ 1` inputs per pass (a single image is a
//! pass at `B = 1`). [`crate::sim::run_two_party`] drives both parties of
//! that path on two threads.
//!
//! Communication is tagged per operator (`conv3`, `abrelu7`, …) so the
//! Table 5 operator profile can be read directly off the channel stats.

use crate::abrelu::{mux_by_receiver, secure_sign};
use crate::{PartyContext, ProtocolError, ReluMode};
use aq2pnn_nn::quant::{QuantModel, QuantOp};
use aq2pnn_ring::{ct, RingTensor};
use aq2pnn_sharing::AShare;
use aq2pnn_transport::ChannelStats;

/// What a party brings to a **batched** online pass
/// ([`crate::prepared::PreparedModel::run_batch`]): the user its `B`
/// private images, the provider the (public) batch size so both sides walk
/// the same widened shapes.
#[derive(Debug, Clone, Copy)]
pub enum BatchInput<'a> {
    /// Party 0: the private images (float CHW, one slice per image).
    User(&'a [&'a [f32]]),
    /// Party 1: contributes the weights; `batch` must equal the user's
    /// image count (it is public protocol structure, like the model).
    Provider {
        /// Number of images in the batch.
        batch: usize,
    },
}

impl BatchInput<'_> {
    /// The batch size both parties agreed on.
    #[must_use]
    pub fn batch(&self) -> usize {
        match self {
            BatchInput::User(images) => images.len(),
            BatchInput::Provider { batch } => *batch,
        }
    }
}

/// Result of one party's batched inference pass.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Recovered integer logits, one vector per image, in input order.
    pub logits: Vec<Vec<i64>>,
    /// This party's channel statistics (the endpoint's running total,
    /// preparation traffic included unless the caller reset it).
    pub stats: ChannelStats,
}

/// Tournament 2PC-MaxPool over precomputed windows: `⌈log₂(k²)⌉` batched
/// comparison rounds, `k²−1` comparisons per output in total.
pub(crate) fn secure_max_windows(
    ctx: &mut PartyContext,
    x: &AShare,
    windows: &[Vec<usize>],
) -> Result<AShare, ProtocolError> {
    let ring = x.ring();
    let xs = x.as_tensor().as_slice();
    // Candidate lists (this party's share values).
    let mut lists: Vec<Vec<u64>> =
        windows.iter().map(|w| w.iter().map(|&i| xs[i]).collect()).collect();
    while lists.iter().any(|l| l.len() > 1) {
        // Pair up within each list.
        let mut a_vals = Vec::new();
        let mut b_vals = Vec::new();
        for l in &lists {
            let pairs = l.len() / 2;
            for p in 0..pairs {
                a_vals.push(l[2 * p]);
                b_vals.push(l[2 * p + 1]);
            }
        }
        let a = AShare::from_tensor(RingTensor::from_raw(ring, vec![a_vals.len()], a_vals)?);
        let b = AShare::from_tensor(RingTensor::from_raw(ring, vec![b_vals.len()], b_vals)?);
        let maxes = secure_max_pairs(ctx, &a, &b)?;
        // Rebuild lists with winners + carried odd elements.
        let mv = maxes.as_tensor().as_slice();
        let mut cursor = 0usize;
        for l in &mut lists {
            let pairs = l.len() / 2;
            let mut next: Vec<u64> = mv[cursor..cursor + pairs].to_vec();
            cursor += pairs;
            if l.len() % 2 == 1 {
                next.push(l[l.len() - 1]);
            }
            *l = next;
        }
    }
    let data: Vec<u64> = lists.iter().map(|l| l[0]).collect();
    Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![data.len()], data)?))
}

/// Elementwise secure max of two share vectors:
/// `max(a,b) = b + [a−b > 0]·(a−b)`.
fn secure_max_pairs(
    ctx: &mut PartyContext,
    a: &AShare,
    b: &AShare,
) -> Result<AShare, ProtocolError> {
    let d = a.sub(b)?;
    let q1 = ctx.q1();
    let d_cmp = if d.ring() == q1 { d.clone() } else { d.narrow(q1) };
    let mode = ctx.cfg.relu_mode;
    let signs = secure_sign(ctx, &d_cmp, mode)?;
    match mode {
        ReluMode::RevealedSign => {
            let flags = signs.flags.ok_or_else(|| {
                ProtocolError::Desync("revealed mode yielded no sign flags in secure max".into())
            })?;
            let ring = a.ring();
            let data: Vec<u64> = a
                .as_tensor()
                .iter()
                .zip(b.as_tensor().iter())
                .zip(&flags)
                .map(|((&av, &bv), &s)| ct::select(u64::from(s), av, bv))
                .collect();
            Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![data.len()], data)?))
        }
        ReluMode::MaskedMux => {
            let sd = mux_by_receiver(ctx, signs.flags.as_deref(), &d)?;
            b.add(&sd).map_err(ProtocolError::from)
        }
    }
}

/// Convenience: the number of logits the engine will reveal for a model.
#[must_use]
pub fn output_len(model: &QuantModel) -> usize {
    // The last shape-bearing op determines it; fall back to walking ops.
    fn walk(ops: &[QuantOp], mut cur: usize) -> usize {
        for op in ops {
            cur = match op {
                QuantOp::Conv2d { out_c, out_hw, .. } => out_c * out_hw.0 * out_hw.1,
                QuantOp::Linear { out_f, .. } => *out_f,
                QuantOp::MaxPool { c, out_hw, .. } | QuantOp::AvgPool { c, out_hw, .. } => {
                    c * out_hw.0 * out_hw.1
                }
                QuantOp::GlobalAvgPool { c, .. } => *c,
                QuantOp::Residual { main, .. } => walk(main, cur),
                _ => cur,
            };
        }
        cur
    }
    walk(&model.ops, model.input_shape.elements())
}

/// An upper bound on the accumulator magnitude of the widest layer —
/// used by the planner to validate `Q2`.
#[must_use]
pub fn max_fan_in(model: &QuantModel) -> u64 {
    fn walk(ops: &[QuantOp]) -> u64 {
        let mut m = 1u64;
        for op in ops {
            m = m.max(match op {
                QuantOp::Conv2d { in_c, k, .. } => (in_c * k * k) as u64,
                QuantOp::Linear { in_f, .. } => *in_f as u64,
                QuantOp::Residual { main, shortcut } => walk(main).max(walk(shortcut)),
                _ => 1,
            });
        }
        m
    }
    walk(&model.ops)
}
