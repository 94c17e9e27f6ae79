//! Additional end-to-end engine coverage: larger architectures, combined
//! protocol-mode matrices, pipeline ablation, and failure handling.

use aq2pnn::sim::{run_two_party, RunPlan};
use aq2pnn::{PipelineMode, ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::tensor::argmax_i64;
use aq2pnn_nn::zoo;
use aq2pnn_transport::duplex;

/// Full LeNet5 (28×28 input, two conv stages, three FC layers) runs
/// privately end to end and matches the plaintext decision.
#[test]
fn lenet5_secure_inference_end_to_end() {
    let data = SyntheticVision::mnist_like(77);
    let mut net = FloatNet::init(&zoo::lenet5(), 78).expect("valid spec");
    net.train_epochs(&data, 1, 16, 0.05);
    let model =
        QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8()).expect("quantizes");
    let cfg = ProtocolConfig::exact(16);
    for s in data.test().iter().take(2) {
        let run = run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default())
            .expect("2pc runs");
        let reference =
            model.forward_ring_exact(&s.image, cfg.q1_bits, cfg.q2_bits).expect("reference");
        assert_eq!(run.logits[0], reference);
    }
}

/// Every (ReluMode × ReluRounds) combination computes the same function in
/// exact mode — a 2×2 protocol matrix over the residual model.
#[test]
fn protocol_mode_matrix_is_function_preserving() {
    let data = SyntheticVision::tiny(4, 88);
    let mut net = FloatNet::init(&zoo::tiny_resnet(4), 89).expect("valid spec");
    net.train_epochs(&data, 1, 8, 0.05);
    let model =
        QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).expect("quantizes");
    let image = &data.test()[0].image;
    let reference = model.forward_ring_exact(image, 16, 32).expect("reference");
    for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
        for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
            let mut cfg = ProtocolConfig::exact(16);
            cfg.relu_mode = mode;
            cfg.relu_rounds = rounds;
            let run = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
                .expect("2pc runs");
            assert_eq!(run.logits[0], reference, "mode {mode:?} rounds {rounds:?}");
        }
    }
}

/// The narrow-activation (literal Fig. 8) pipeline runs — and is visibly
/// less accurate than stay-wide at the same headroom, which is the whole
/// point of the ablation.
#[test]
fn narrow_pipeline_degrades_vs_stay_wide() {
    let data = SyntheticVision::tiny(4, 99);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), 100).expect("valid spec");
    net.train_epochs(&data, 3, 8, 0.05);
    let model =
        QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8()).expect("quantizes");
    let n = 10;
    let count_agree = |cfg: &ProtocolConfig| {
        data.test()
            .iter()
            .take(n)
            .filter(|s| {
                let run = run_two_party(duplex(), &model, cfg, &[&s.image], &RunPlan::default())
                    .expect("runs");
                let plain = model.forward(&s.image).expect("plaintext");
                argmax_i64(&run.logits[0]) == argmax_i64(&plain)
            })
            .count()
    };
    let wide = count_agree(&ProtocolConfig::paper(12));
    let mut narrow_cfg = ProtocolConfig::paper(12);
    narrow_cfg.pipeline = PipelineMode::NarrowActivations;
    let narrow = count_agree(&narrow_cfg);
    assert!(wide >= n - 1, "stay-wide agreement {wide}/{n}");
    assert!(narrow < wide, "narrow {narrow} should underperform wide {wide}");
}

/// The carrier cliff measured through the *real* engine (not the fast
/// simulation): at a carrier too small for INT8 values the secure
/// classification collapses.
#[test]
fn real_engine_exhibits_the_carrier_cliff() {
    let data = SyntheticVision::tiny(4, 111);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), 112).expect("valid spec");
    net.train_epochs(&data, 3, 8, 0.05);
    let model =
        QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8()).expect("quantizes");
    let n = 8;
    let accuracy_at = |bits: u32| {
        let cfg = ProtocolConfig::exact(bits);
        data.test()
            .iter()
            .take(n)
            .filter(|s| {
                let run = run_two_party(duplex(), &model, &cfg, &[&s.image], &RunPlan::default())
                    .expect("runs");
                argmax_i64(&run.logits[0]) == s.label
            })
            .count()
    };
    let healthy = accuracy_at(12);
    let cliff = accuracy_at(7);
    assert!(healthy >= n - 2, "12-bit carrier should classify: {healthy}/{n}");
    assert!(cliff <= healthy - 2, "7-bit carrier should collapse: {cliff} vs {healthy}");
}

/// Protocol misuse is detected: mismatched party inputs error instead of
/// hanging or corrupting.
#[test]
fn mismatched_party_input_is_rejected() {
    use aq2pnn::engine::BatchInput;
    use aq2pnn::prepared::PreparedModel;
    use aq2pnn::sim::run_pair;

    let data = SyntheticVision::tiny(4, 5);
    let net = FloatNet::init(&zoo::tiny_cnn(4), 6).expect("valid spec");
    let model =
        QuantModel::quantize(&net, &data.calibration(4), &QuantConfig::int8()).expect("quantizes");
    // User claiming to be the provider.
    let (user, _) = run_pair(duplex(), &ProtocolConfig::paper(16), |ctx| {
        PreparedModel::prepare(ctx, &model)?.run_batch(ctx, BatchInput::Provider { batch: 1 })
    });
    let err = user.unwrap_err();
    assert!(matches!(err, aq2pnn::ProtocolError::Model(_)));
}

/// Deterministic replays: two identical runs produce identical logits and
/// identical byte counts (the whole stack is seed-stable).
#[test]
fn runs_are_deterministic() {
    let data = SyntheticVision::tiny(4, 121);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), 122).expect("valid spec");
    net.train_epochs(&data, 1, 8, 0.05);
    let model =
        QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).expect("quantizes");
    let cfg = ProtocolConfig::paper(16);
    let a = run_two_party(duplex(), &model, &cfg, &[&data.test()[0].image], &RunPlan::default())
        .expect("runs");
    let b = run_two_party(duplex(), &model, &cfg, &[&data.test()[0].image], &RunPlan::default())
        .expect("runs");
    assert_eq!(a.logits, b.logits);
    assert_eq!(a.user_stats.bytes_sent, b.user_stats.bytes_sent);
    assert_eq!(a.provider_stats.bytes_sent, b.provider_stats.bytes_sent);
}

/// AlexNet (stride-4 stem, 3×3/s2 pools, three FC stages) — the remaining
/// zoo geometry — runs exactly through the engine.
#[test]
fn alexnet_geometry_runs_exactly() {
    // Train-free: random init is fine for a bit-exactness check.
    let data = SyntheticVision::generate(4, 1, 28, 28, 32, 8, 0.3, 131);
    let net = FloatNet::init(&zoo::alexnet_mnist(), 132).expect("valid spec");
    let model =
        QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).expect("quantizes");
    let cfg = ProtocolConfig::exact(16);
    let image = &data.test()[0].image;
    let run =
        run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default()).expect("2pc runs");
    let reference = model.forward_ring_exact(image, cfg.q1_bits, cfg.q2_bits).expect("ref");
    assert_eq!(run.logits[0], reference);
}
