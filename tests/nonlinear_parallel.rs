//! Thread-count invariance of the batched nonlinear engine.
//!
//! `secure_sign` fans its code-matrix construction, OT encryption and sign
//! reduction out across worker threads; the 2PC contract is that this is
//! *unobservable*: every thread count must produce bit-identical sign flags
//! and a byte-identical wire transcript (`ChannelStats`: bytes, messages,
//! rounds, per-phase). This file pins that exhaustively on a small ring
//! (ℓ = 6: every `(x_0, x_1)` share pair) across
//! {Single, Lazy} × {RevealedSign, MaskedMux} × thread counts {1, 4}.

use aq2pnn::abrelu::secure_sign;
use aq2pnn::sim::run_pair;
use aq2pnn::{ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::{duplex, ChannelStats};
use std::sync::Mutex;

/// Serializes tests that mutate the process-wide `AQ2PNN_THREADS` knob.
static THREAD_ENV: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_ENV.lock().unwrap();
    std::env::set_var("AQ2PNN_THREADS", threads);
    let out = f();
    std::env::remove_var("AQ2PNN_THREADS");
    out
}

/// Both parties' observable outcome of one batched `secure_sign` run: the
/// receiver's flags, the sender's flags (revealed mode only), and both
/// transcripts.
type SignRun = ((Option<Vec<u8>>, ChannelStats), (Option<Vec<u8>>, ChannelStats));

/// Runs `secure_sign` over the given per-party share vectors.
fn run_sign(cfg: &ProtocolConfig, s0: Vec<u64>, s1: Vec<u64>, mode: ReluMode) -> SignRun {
    let ring = cfg.q1();
    run_pair(duplex(), cfg, move |ctx| {
        let raw = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        let t = RingTensor::from_raw(ring, vec![raw.len()], raw).unwrap();
        let share = AShare::from_tensor(t);
        ctx.ep.reset_stats();
        let flags = secure_sign(ctx, &share, mode).unwrap();
        (flags.flags, ctx.ep.stats())
    })
}

/// Every (x_0, x_1) share pair of the ℓ=6 ring as one 4096-element batch.
fn exhaustive_shares(ring: Ring) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
    let q = 1u64 << ring.bits();
    let mut s0 = Vec::with_capacity((q * q) as usize);
    let mut s1 = Vec::with_capacity((q * q) as usize);
    let mut expect = Vec::with_capacity((q * q) as usize);
    for x0 in 0..q {
        for x1 in 0..q {
            s0.push(x0);
            s1.push(x1);
            expect.push(u8::from(ring.decode_signed(ring.add(x0, x1)) > 0));
        }
    }
    (s0, s1, expect)
}

#[test]
fn exhaustive_l6_all_modes_and_thread_counts() {
    let ring = Ring::new(6);
    let (s0, s1, expect) = exhaustive_shares(ring);
    for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
        for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
            let mut cfg = ProtocolConfig::paper(6);
            cfg.relu_rounds = rounds;
            cfg.relu_mode = mode;
            let mut runs: Vec<SignRun> = Vec::new();
            for threads in ["1", "4"] {
                let (cfg2, s0c, s1c) = (cfg.clone(), s0.clone(), s1.clone());
                runs.push(with_threads(threads, || run_sign(&cfg2, s0c, s1c, mode)));
            }
            // Receiver flags match the plaintext sign of (x_0 + x_1) mod Q.
            for ((_, _), (provider, _)) in &runs {
                assert_eq!(
                    provider.as_deref(),
                    Some(&expect[..]),
                    "rounds={rounds:?} mode={mode:?}"
                );
            }
            // Revealed mode: sender learns the same flags; masked: none.
            for ((user, _), _) in &runs {
                match mode {
                    ReluMode::RevealedSign => {
                        assert_eq!(user.as_deref(), Some(&expect[..]));
                    }
                    ReluMode::MaskedMux => assert!(user.is_none()),
                }
            }
            // Byte-identical transcripts across thread counts: bytes,
            // messages, rounds and the per-phase breakdown all agree.
            let ((_, u_serial), (_, p_serial)) = &runs[0];
            for ((_, u_par), (_, p_par)) in &runs[1..] {
                assert_eq!(u_serial, u_par, "user transcript drifted: {rounds:?} {mode:?}");
                assert_eq!(p_serial, p_par, "provider transcript drifted: {rounds:?} {mode:?}");
            }
        }
    }
}

/// Same invariance on a wider ring with a large batch — the geometry the
/// chunked fan-out actually splits (ℓ=16 ⇒ 9 groups, 32 OT slots/item).
#[test]
fn wide_ring_large_batch_thread_invariance() {
    let ring = Ring::new(16);
    let n = 4096usize;
    let s0: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9) & ring.mask()).collect();
    let s1: Vec<u64> = (0..n as u64).map(|i| (i * 0x85eb_ca6b + 17) & ring.mask()).collect();
    let expect: Vec<u8> = s0
        .iter()
        .zip(&s1)
        .map(|(&a, &b)| u8::from(ring.decode_signed(ring.add(a, b)) > 0))
        .collect();
    for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
        let mut cfg = ProtocolConfig::paper(16);
        cfg.relu_rounds = rounds;
        let mut runs: Vec<SignRun> = Vec::new();
        for threads in ["1", "4"] {
            let (cfg2, s0c, s1c) = (cfg.clone(), s0.clone(), s1.clone());
            runs.push(with_threads(threads, || run_sign(&cfg2, s0c, s1c, ReluMode::RevealedSign)));
        }
        for ((user, _), (provider, _)) in &runs {
            assert_eq!(provider.as_deref(), Some(&expect[..]), "rounds={rounds:?}");
            assert_eq!(user.as_deref(), Some(&expect[..]), "rounds={rounds:?}");
        }
        let ((_, u_serial), (_, p_serial)) = &runs[0];
        for ((_, u_par), (_, p_par)) in &runs[1..] {
            assert_eq!(u_serial, u_par, "user transcript drifted: {rounds:?}");
            assert_eq!(p_serial, p_par, "provider transcript drifted: {rounds:?}");
        }
    }
}
