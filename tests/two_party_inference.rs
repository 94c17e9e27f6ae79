//! End-to-end integration tests: the full 2PC inference engine against the
//! plaintext quantized reference, across operator mixes, protocol modes
//! and ring widths, plus compiler-vs-measured communication consistency.

use aq2pnn::instq;
use aq2pnn::sim::{run_two_party, RunPlan};
use aq2pnn::{ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::tensor::argmax_i64;
use aq2pnn_nn::zoo;
use aq2pnn_transport::duplex;

fn trained_model(spec: &aq2pnn_nn::spec::ModelSpec, seed: u64) -> (QuantModel, SyntheticVision) {
    let data = SyntheticVision::tiny(4, seed);
    let mut net = FloatNet::init(spec, seed + 1).expect("valid spec");
    net.train_epochs(&data, 2, 8, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
        .expect("quantization succeeds");
    (q, data)
}

/// Exact share-conversion mode must reproduce the plaintext ring reference
/// bit for bit — convolutions, BNReQ, ABReLU, max pooling and all.
#[test]
fn exact_mode_is_bit_exact_tiny_cnn() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 100);
    let cfg = ProtocolConfig::exact(16);
    for s in data.test().iter().take(4) {
        let secure = run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default())
            .expect("2pc runs");
        let reference =
            model.forward_ring_exact(&s.image, cfg.q1_bits, cfg.q2_bits).expect("reference runs");
        assert_eq!(secure.logits[0], reference, "exact 2PC must match the ring reference");
    }
}

/// Same bit-exactness through residual blocks, BatchNorm folding and
/// global average pooling.
#[test]
fn exact_mode_is_bit_exact_tiny_resnet() {
    let (model, data) = trained_model(&zoo::tiny_resnet(4), 200);
    let cfg = ProtocolConfig::exact(16);
    for s in data.test().iter().take(3) {
        let secure = run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default())
            .expect("2pc runs");
        let reference =
            model.forward_ring_exact(&s.image, cfg.q1_bits, cfg.q2_bits).expect("reference runs");
        assert_eq!(secure.logits[0], reference);
    }
}

/// The masked-MUX ReLU variant computes the same function.
#[test]
fn masked_mux_mode_is_bit_exact() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 300);
    let mut cfg = ProtocolConfig::exact(16);
    cfg.relu_mode = ReluMode::MaskedMux;
    let s = &data.test()[0];
    let secure =
        run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default()).expect("2pc runs");
    let reference =
        model.forward_ring_exact(&s.image, cfg.q1_bits, cfg.q2_bits).expect("reference");
    assert_eq!(secure.logits[0], reference);
}

/// The lazy (two-round, quadrant-gated) ABReLU schedule computes the same
/// function.
#[test]
fn lazy_rounds_are_bit_exact() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 400);
    let mut cfg = ProtocolConfig::exact(16);
    cfg.relu_rounds = ReluRounds::Lazy;
    let s = &data.test()[1];
    let secure =
        run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default()).expect("2pc runs");
    let reference =
        model.forward_ring_exact(&s.image, cfg.q1_bits, cfg.q2_bits).expect("reference");
    assert_eq!(secure.logits[0], reference);
}

/// The paper-faithful configuration (local truncation + local extension)
/// is probabilistic, but with the recommended headroom the classification
/// decision should almost always match the plaintext model.
#[test]
fn paper_mode_preserves_argmax_with_headroom() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 500);
    let cfg = ProtocolConfig::paper(18); // generous headroom
    let n = 12;
    let mut agree = 0;
    for s in data.test().iter().take(n) {
        let secure = run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default())
            .expect("2pc runs");
        let plain = model.forward(&s.image).expect("plaintext runs");
        if argmax_i64(&secure.logits[0]) == argmax_i64(&plain) {
            agree += 1;
        }
    }
    assert!(agree >= n - 2, "argmax agreement {agree}/{n}");
}

/// The INST Q compiler's byte accounting must match the live engine's
/// measured traffic exactly (single-round schedule).
#[test]
fn compiled_bytes_match_measured_bytes() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 600);
    for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
        let mut cfg = ProtocolConfig::paper(16);
        cfg.relu_mode = mode;
        let program = instq::compile(&model, &cfg);
        let run =
            run_two_party(duplex(), &model, &cfg, &[&data.test()[0].image], &RunPlan::default())
                .expect("2pc runs");
        assert_eq!(
            program.user_bytes_sent(),
            run.user_stats.bytes_sent,
            "user bytes, mode {mode:?}"
        );
        assert_eq!(
            program.provider_bytes_sent(),
            run.provider_stats.bytes_sent,
            "provider bytes, mode {mode:?}"
        );
    }
}

/// Shrinking the ABReLU carrier shrinks measured communication — the
/// paper's core claim (Tables 7/8 mechanism), measured live.
#[test]
fn communication_scales_down_with_q1() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 700);
    let image = &data.test()[0].image;
    let mut prev = u64::MAX;
    for bits in [24u32, 16, 12] {
        let cfg = ProtocolConfig::paper(bits);
        let run =
            run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default()).expect("2pc runs");
        let total = run.user_stats.total_bytes();
        assert!(total < prev, "q1={bits}: {total} not < {prev}");
        prev = total;
    }
}

/// Per-operator phase accounting covers the traffic: conv + abrelu +
/// maxpool + output phases must add up to the total.
#[test]
fn phase_accounting_is_complete() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 800);
    let cfg = ProtocolConfig::paper(16);
    let run = run_two_party(duplex(), &model, &cfg, &[&data.test()[0].image], &RunPlan::default())
        .expect("2pc runs");
    let st = &run.user_stats;
    let phase_sum: u64 = st.phases.values().map(|p| p.bytes_sent).sum();
    assert_eq!(phase_sum, st.bytes_sent);
    assert!(st.phases.keys().any(|k| k.starts_with("conv")));
    assert!(st.phases.keys().any(|k| k.starts_with("abrelu")));
    assert!(st.phases.keys().any(|k| k.starts_with("maxpool")));
    assert!(st.phases.contains_key("output"));
}

/// Average pooling variant must run without any comparison traffic in its
/// pooling phases (the Sec. 6.5 optimization).
#[test]
fn avgpool_variant_has_no_pool_communication() {
    let (model, data) = trained_model(&zoo::tiny_cnn_avgpool(4), 900);
    let cfg = ProtocolConfig::paper(16);
    let run = run_two_party(duplex(), &model, &cfg, &[&data.test()[0].image], &RunPlan::default())
        .expect("2pc runs");
    let st = &run.user_stats;
    assert!(st.phases.keys().all(|k| !k.starts_with("maxpool")));
    let avg_bytes: u64 = st
        .phases
        .iter()
        .filter(|(k, _)| k.starts_with("avgpool"))
        .map(|(_, p)| p.total_bytes())
        .sum();
    assert_eq!(avg_bytes, 0, "2PC-AvgPool must be AS-ALU only");
}

/// MaxPool costs communication where AvgPool does not; total traffic of
/// the max-pool model strictly dominates.
#[test]
fn maxpool_model_costs_more_than_avgpool_model() {
    let (max_model, data) = trained_model(&zoo::tiny_cnn(4), 1000);
    let (avg_model, _) = trained_model(&zoo::tiny_cnn_avgpool(4), 1000);
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;
    let max_run =
        run_two_party(duplex(), &max_model, &cfg, &[image], &RunPlan::default()).expect("runs");
    let avg_run =
        run_two_party(duplex(), &avg_model, &cfg, &[image], &RunPlan::default()).expect("runs");
    assert!(
        max_run.user_stats.total_bytes() > avg_run.user_stats.total_bytes(),
        "max {} vs avg {}",
        max_run.user_stats.total_bytes(),
        avg_run.user_stats.total_bytes()
    );
}
