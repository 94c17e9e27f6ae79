//! End-to-end checks of the tracing/metrics layer: a traced tiny-CNN
//! inference must emit one span per layer per protocol stage, the
//! per-layer cost report must reconcile byte-for-byte with the channel
//! statistics, and the Chrome `trace_event` export must round-trip back
//! into the identical report.

use aq2pnn::sim::{run_two_party, PartyObs, RunPlan};
use aq2pnn::substrate::obs::chrome::{chrome_trace, parse_chrome_trace};
use aq2pnn::substrate::obs::json::Json;
use aq2pnn::substrate::obs::report::{CostReport, CAT_LAYER, CAT_OFFLINE, CAT_STAGE};
use aq2pnn::substrate::obs::tracer::SpanRecord;
use aq2pnn::ProtocolConfig;
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_transport::duplex;

fn trained_model(seed: u64) -> (QuantModel, Vec<f32>) {
    let data = SyntheticVision::tiny(4, seed);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), seed + 1).expect("valid spec");
    net.train_epochs(&data, 1, 8, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
        .expect("quantization succeeds");
    let image = data.test()[0].image.clone();
    (q, image)
}

/// Runs one traced inference and returns `(per-party spans, per-party
/// total bytes from ChannelStats)`.
fn traced_run() -> ([Vec<SpanRecord>; 2], [u64; 2]) {
    let (model, image) = trained_model(4242);
    let cfg = ProtocolConfig::paper(16);
    let user = PartyObs::enabled();
    let provider = PartyObs::enabled();
    let plan =
        RunPlan { user_obs: user.clone(), provider_obs: provider.clone(), ..RunPlan::default() };
    let out =
        run_two_party(duplex(), &model, &cfg, &[&image], &plan).expect("traced 2pc inference runs");
    (
        [user.tracer.snapshot(), provider.tracer.snapshot()],
        [out.user_stats.total_bytes(), out.provider_stats.total_bytes()],
    )
}

fn top_layers(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.parent.is_none() && s.cat == CAT_LAYER).collect()
}

fn children_of(spans: &[SpanRecord], parent: usize) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.parent == Some(parent)).collect()
}

#[test]
fn traced_tiny_cnn_report_reconciles_with_channel_stats() {
    let (spans, totals) = traced_run();

    for (pid, (spans, total)) in spans.iter().zip(&totals).enumerate() {
        // --- One top-level layer span per engine layer, in order. ---
        let layers: Vec<&str> = top_layers(spans).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            layers,
            vec![
                "input", "conv0", "abrelu1", "maxpool2", "conv3", "abrelu4", "maxpool5", "fc7",
                "abrelu8", "fc9", "output",
            ],
            "party {pid}: unexpected layer timeline"
        );
        // --- Offline spans: one per linear layer, nothing else. ---
        let offline: Vec<&str> =
            spans.iter().filter(|s| s.cat == CAT_OFFLINE).map(|s| s.name.as_str()).collect();
        assert_eq!(offline, vec!["conv0", "conv3", "fc7", "fc9"], "party {pid}");

        // --- Each conv/fc layer has gemm + bnreq stages; each abrelu has
        //     a2bm + ot-flow (+ reveal in the default RevealedSign mode).
        for (i, span) in spans.iter().enumerate() {
            if span.parent.is_some() || span.cat != CAT_LAYER {
                continue;
            }
            let stages: Vec<&str> = children_of(spans, i)
                .iter()
                .filter(|s| s.cat == CAT_STAGE)
                .map(|s| s.name.as_str())
                .collect();
            if span.name.starts_with("conv") || span.name.starts_with("fc") {
                assert_eq!(stages, vec!["gemm", "bnreq"], "party {pid} layer {}", span.name);
            } else if span.name.starts_with("abrelu") {
                assert_eq!(
                    stages,
                    vec!["a2bm", "ot-flow", "reveal"],
                    "party {pid} layer {}",
                    span.name
                );
            }
        }

        // --- Layer spans carry public structure only: ring width + shape.
        // (`paper(16)` runs StayWide: activations stay on Q2 = 16+16 bits.)
        let conv0 = top_layers(spans).into_iter().find(|s| s.name == "conv0").unwrap();
        assert_eq!(conv0.arg_u64("ring_bits"), 32, "party {pid}");
        assert!(conv0.arg("shape").is_some(), "party {pid}: conv0 span missing shape");

        // --- The reconciliation invariant: top-level spans partition the
        //     transcript, so the report total equals the channel total.
        let report = CostReport::from_spans(&[(u32::try_from(pid).unwrap(), spans)]);
        let pid64 = pid as u64;
        assert_eq!(
            report.total_bytes(pid64),
            *total,
            "party {pid}: per-layer report must sum to ChannelStats::total_bytes()"
        );
        assert!(report.offline_total(pid64).bytes > 0, "party {pid}: offline-f traffic traced");
        assert!(report.online_total(pid64).bytes > 0, "party {pid}: online traffic traced");
    }

    // Two-party symmetry: bytes one party sends, the other receives.
    assert_eq!(totals[0], totals[1], "duplex transcript must be symmetric in total");
}

#[test]
fn chrome_export_roundtrips_into_identical_report() {
    let (spans, totals) = traced_run();
    let parties: Vec<(u32, &[SpanRecord])> =
        spans.iter().enumerate().map(|(i, s)| (u32::try_from(i).unwrap(), &s[..])).collect();

    let live = CostReport::from_spans(&parties);
    let doc = chrome_trace(&parties);
    let text = doc.to_string_pretty();
    let parsed = Json::parse(&text).expect("emitted trace.json parses");
    let events = parse_chrome_trace(&parsed).expect("schema-valid Chrome trace");
    let rebuilt = CostReport::from_chrome(&events);

    // Byte/round content is exactly preserved through the JSON round trip.
    for pid in [0u64, 1] {
        assert_eq!(rebuilt.total_bytes(pid), live.total_bytes(pid), "party {pid}");
        assert_eq!(rebuilt.total_bytes(pid), totals[usize::try_from(pid).unwrap()], "party {pid}");
        assert_eq!(rebuilt.online_total(pid).rounds, live.online_total(pid).rounds, "party {pid}");
    }
    assert_eq!(
        rebuilt.rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
        live.rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
        "row set survives the round trip"
    );

    // The rendered table mentions every layer and both parties.
    let table = live.render();
    for needle in ["conv0", "abrelu1", "fc9", "party 0", "party 1", "total"] {
        assert!(table.contains(needle), "report table missing {needle}:\n{table}");
    }
}
