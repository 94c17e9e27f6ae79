//! Amortization tests for [`aq2pnn::prepared::PreparedModel`]: preparation
//! pays the offline cost (weight-share PRG derivation + `offline-f` mask
//! openings) exactly once, and every subsequent run is online-only.

use aq2pnn::engine::BatchInput;
use aq2pnn::prepared::{PreparedModel, PreparedTemplate};
use aq2pnn::sim::{run_pair, run_two_party, RunPlan};
use aq2pnn::ProtocolConfig;
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{duplex, ChannelStats};
use std::sync::Arc;

fn trained_model(seed: u64) -> (QuantModel, SyntheticVision) {
    let data = SyntheticVision::tiny(4, seed);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), seed + 1).expect("valid spec");
    net.train_epochs(&data, 2, 8, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
        .expect("quantization succeeds");
    (q, data)
}

/// One party's transcript of prepare + three runs.
type Transcript = (ChannelStats, Vec<(Vec<Vec<i64>>, ChannelStats)>);

/// Prepares once, runs three inferences (same image twice, then a second
/// image), resetting the channel counters around each stage so every
/// stage's traffic is observable in isolation.
fn prepare_and_run_thrice(
    cfg: &ProtocolConfig,
    model: &QuantModel,
    images: [Vec<f32>; 3],
) -> (Transcript, Transcript) {
    let model = model.clone();
    run_pair(duplex(), cfg, move |ctx| {
        ctx.ep.reset_stats();
        let mut prepared = PreparedModel::prepare(ctx, &model).expect("prepare succeeds");
        let prep_stats = ctx.ep.stats();
        let mut runs = Vec::new();
        for image in &images {
            ctx.ep.reset_stats();
            let out = match ctx.id {
                PartyId::User => prepared.run_batch(ctx, BatchInput::User(&[image.as_slice()])),
                PartyId::ModelProvider => {
                    prepared.run_batch(ctx, BatchInput::Provider { batch: 1 })
                }
            }
            .expect("run succeeds");
            runs.push((out.logits, ctx.ep.stats()));
        }
        (prep_stats, runs)
    })
}

/// Repeated single-image `PreparedModel::run_batch` passes perform zero weight-share PRG
/// regeneration and zero `offline-f` traffic after preparation: all
/// `offline-f` bytes land in the preparation stage, every run carries
/// none, and the per-run online traffic is byte-identical across runs.
#[test]
fn repeated_runs_carry_no_offline_traffic() {
    let (model, data) = trained_model(900);
    // Exact share conversions: under `paper` mode local truncation has a
    // share-dependent ±1, so fresh per-run triples would legitimately
    // perturb logits by one ulp and mask what this test is after.
    let cfg = ProtocolConfig::exact(16);
    let img_a = data.test()[0].image.clone();
    let img_b = data.test()[1].image.clone();
    let ((prep, runs), (prep_p, runs_p)) =
        prepare_and_run_thrice(&cfg, &model, [img_a.clone(), img_a.clone(), img_b]);

    // Preparation carries the weight-mask openings — and only offline
    // phases (`offline-f` plus any share-conversion setup, none today).
    let off = prep.phase("offline-f");
    assert!(off.bytes_sent > 0, "prepare must open the weight masks");
    assert_eq!(
        prep.total_bytes(),
        off.bytes_sent + off.bytes_received,
        "preparation traffic is exclusively offline-f"
    );

    for (who, runs) in [("user", &runs), ("provider", &runs_p)] {
        for (i, (_, stats)) in runs.iter().enumerate() {
            assert!(
                !stats.phases.contains_key("offline-f"),
                "{who} run {i} re-opened weight masks"
            );
            assert_eq!(
                stats.total_bytes(),
                runs[0].1.total_bytes(),
                "{who} run {i}: online byte cost must not drift across runs"
            );
        }
    }

    // Same input twice → same logits (fresh per-inference triples must not
    // perturb the function value); parties always agree.
    assert_eq!(runs[0].0, runs[1].0, "same image must yield same logits");
    for (u, p) in runs.iter().zip(&runs_p) {
        assert_eq!(u.0, p.0, "parties recovered different logits");
    }

    // Sanity: preparation did real work.
    assert!(prep_p.total_bytes() == prep.total_bytes());
}

/// A one-image `run_two_party` session is exactly prepare + one run: same
/// logits, and its traffic equals the sum of the two stages.
#[test]
fn one_image_session_equals_prepare_plus_one_run() {
    let (model, data) = trained_model(910);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.clone();
    let ((prep, runs), _) =
        prepare_and_run_thrice(&cfg, &model, [image.clone(), image.clone(), image.clone()]);
    let single =
        run_two_party(duplex(), &model, &cfg, &[&image], &RunPlan::default()).expect("2pc runs");
    assert_eq!(single.logits, runs[0].0);
    assert_eq!(single.user_stats.total_bytes(), prep.total_bytes() + runs[0].1.total_bytes());
}

/// One party's side of a single-image session: logits, channel stats, and
/// the bound model (kept so the caller controls its lifetime).
type BoundRun = (Vec<Vec<i64>>, ChannelStats, PreparedModel);

/// One single-image session. The user always runs a full `prepare`; the
/// provider binds `template` when given, and prepares fully otherwise.
fn single_session(
    cfg: &ProtocolConfig,
    model: &QuantModel,
    image: &[f32],
    template: Option<&Arc<PreparedTemplate>>,
) -> (BoundRun, BoundRun) {
    run_pair(duplex(), cfg, |ctx| {
        let mut prepared = match (ctx.id, template) {
            (PartyId::ModelProvider, Some(t)) => t.bind(ctx),
            _ => PreparedModel::prepare(ctx, model),
        }
        .expect("prepare succeeds");
        let input = match ctx.id {
            PartyId::User => BatchInput::User(&[image]),
            PartyId::ModelProvider => BatchInput::Provider { batch: 1 },
        };
        let logits = prepared.run_batch(ctx, input).expect("run succeeds").logits;
        (logits, ctx.ep.stats(), prepared)
    })
}

/// Provider sessions bound from one shared template are indistinguishable
/// from full `prepare`s — same logits, same per-phase traffic on both
/// sides — and each live bound model holds the template by reference
/// rather than a copy: the `Arc` count rises by one per model and falls
/// back once they drop.
#[test]
fn sessions_bound_from_one_template_match_full_prepares() {
    let (model, data) = trained_model(920);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.clone();
    let (ref_user, ref_provider) = single_session(&cfg, &model, &image, None);

    let template = Arc::new(
        PreparedTemplate::build(PartyId::ModelProvider, &cfg, &model).expect("template builds"),
    );
    assert_eq!(Arc::strong_count(&template), 1);
    let mut live = Vec::new();
    for k in 1..=2 {
        let (user, provider) = single_session(&cfg, &model, &image, Some(&template));
        assert_eq!(user.0, ref_user.0, "session {k}: user logits differ from prepare/prepare");
        assert_eq!(provider.0, ref_provider.0, "session {k}: provider logits differ");
        assert_eq!(user.1, ref_user.1, "session {k}: user per-phase traffic differs");
        assert_eq!(provider.1, ref_provider.1, "session {k}: provider per-phase traffic differs");
        drop(user.2);
        live.push(provider.2);
        assert_eq!(Arc::strong_count(&template), 1 + k, "one reference per live bound model");
    }
    drop(live);
    assert_eq!(Arc::strong_count(&template), 1, "dropped models must release the template");
}
