//! Fault-tolerance soak: full two-party inference over fault-injected
//! links must complete with logits **bit-identical** to the in-memory run,
//! with bounded retries — and unrecoverable links must surface typed
//! errors, never panics.
//!
//! The always-on tests run `tiny_cnn` (fast in debug builds) over seeded
//! schedules of drops, duplicates, corruption and delays, plus a TCP
//! loopback run with forced mid-inference disconnects. The LeNet5 soak is
//! `#[ignore]`d and executed by the release-mode CI fault-matrix job.

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn::sim::{run_pair, run_two_party, RunPlan};
use aq2pnn::substrate::obs::MetricsRegistry;
use aq2pnn::{ProtocolConfig, ProtocolError};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{
    duplex, duplex_with_timeout, mem_pair, Endpoint, FaultPlan, FaultyTransport, Session,
    SessionConfig, TcpConfig, TcpTransport, Transport, TransportError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn trained_model(spec: &aq2pnn_nn::spec::ModelSpec, seed: u64) -> (QuantModel, SyntheticVision) {
    let data = SyntheticVision::tiny(4, seed);
    let mut net = FloatNet::init(spec, seed + 1).expect("valid spec");
    net.train_epochs(&data, 2, 8, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
        .expect("quantization succeeds");
    (q, data)
}

/// Session tuning for soak runs: fast probes so dropped frames are
/// re-requested quickly, generous probe budget so slow debug-mode compute
/// phases are not mistaken for a dead link.
fn soak_session_cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        probe_interval: Duration::from_millis(25),
        max_probes: 1200,
        jitter_seed: seed,
        ..SessionConfig::default()
    }
}

/// Endpoint pair over fault-injected in-memory links. Returns the fault
/// proxies and sessions too so tests can assert on injected/repaired
/// counts.
#[allow(clippy::type_complexity)]
fn faulty_mem_endpoints(
    plan0: FaultPlan,
    plan1: FaultPlan,
    scfg: SessionConfig,
) -> (Endpoint, Endpoint, [Arc<FaultyTransport>; 2], [Arc<Session>; 2]) {
    let (r0, r1) = mem_pair();
    let f0 = Arc::new(FaultyTransport::new(Arc::new(r0), plan0));
    let f1 = Arc::new(FaultyTransport::new(Arc::new(r1), plan1));
    let s0 = Arc::new(Session::new(Arc::clone(&f0) as Arc<dyn Transport>, scfg));
    let s1 = Arc::new(Session::new(Arc::clone(&f1) as Arc<dyn Transport>, scfg));
    let e0 = Endpoint::over_transport(Arc::clone(&s0) as Arc<dyn Transport>, None);
    let e1 = Endpoint::over_transport(Arc::clone(&s1) as Arc<dyn Transport>, None);
    (e0, e1, [f0, f1], [s0, s1])
}

/// Endpoint pair over a real TCP loopback connection, each side behind a
/// fault proxy and a reliability session.
#[allow(clippy::type_complexity)]
fn faulty_tcp_endpoints(
    plan0: FaultPlan,
    plan1: FaultPlan,
    scfg: SessionConfig,
) -> (Endpoint, Endpoint, [Arc<FaultyTransport>; 2], [Arc<Session>; 2]) {
    let listener = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound addr");
    let connector = TcpTransport::connect(addr, TcpConfig::default()).expect("dial loopback");
    let f0 = Arc::new(FaultyTransport::new(Arc::new(connector), plan0));
    let f1 = Arc::new(FaultyTransport::new(Arc::new(listener), plan1));
    let s0 = Arc::new(Session::new(Arc::clone(&f0) as Arc<dyn Transport>, scfg));
    let s1 = Arc::new(Session::new(Arc::clone(&f1) as Arc<dyn Transport>, scfg));
    let e0 = Endpoint::over_transport(Arc::clone(&s0) as Arc<dyn Transport>, None);
    let e1 = Endpoint::over_transport(Arc::clone(&s1) as Arc<dyn Transport>, None);
    (e0, e1, [f0, f1], [s0, s1])
}

/// Both sessions' repair telemetry (retransmits, Nak probes, reconnects)
/// and both fault proxies' injection counts, one line per party — printed
/// when a soak fails, so a failure on a loaded machine shows whether the
/// probe budget ran out.
fn link_report(faults: &[Arc<FaultyTransport>; 2], sessions: &[Arc<Session>; 2]) -> String {
    (0..2)
        .map(|i| {
            format!("party {i}: {:?}; injected {:?}", sessions[i].telemetry(), faults[i].stats())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Lossy in-memory schedules: five seeds of mixed drop/duplicate/corrupt/
/// delay faults. Logits must match the clean run bit for bit and the
/// repair work must stay bounded.
#[test]
fn tiny_cnn_bit_identical_under_lossy_schedules() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 77);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();
    let baseline = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
        .expect("clean run")
        .logits;

    let mut total_injected = 0u64;
    for seed in [1u64, 2, 3, 4, 5] {
        let (e0, e1, faults, sessions) = faulty_mem_endpoints(
            FaultPlan::lossy(seed),
            FaultPlan::lossy(seed ^ 0xFFFF),
            soak_session_cfg(seed),
        );
        let run = run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default())
            .unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: inference failed under faults: {e}\n{}",
                    link_report(&faults, &sessions)
                )
            });
        assert_eq!(run.logits, baseline, "seed {seed}: logits diverged under faults");
        for f in &faults {
            let s = f.stats();
            total_injected += s.dropped + s.duplicated + s.corrupted + s.delayed;
        }
        for s in &sessions {
            let t = s.telemetry();
            assert!(
                t.retransmits < 20_000,
                "seed {seed}: unbounded retransmission ({} frames)",
                t.retransmits
            );
        }
    }
    assert!(total_injected > 0, "fault schedules never fired — soak is vacuous");
}

/// TCP loopback with forced disconnects on both sides mid-inference: the
/// sessions must reconnect, replay, and still produce the clean logits.
#[test]
fn tiny_cnn_tcp_survives_disconnect_and_reconnect() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 78);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();
    let baseline = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
        .expect("clean run")
        .logits;

    // A tiny_cnn inference sends ~23 session frames per party; disconnect
    // early on one side and mid-run on the other so both reconnect paths
    // (connector redial, listener re-accept) are exercised.
    let plan0 = FaultPlan { disconnect_at: vec![8], ..FaultPlan::clean() };
    let plan1 = FaultPlan { disconnect_at: vec![15], ..FaultPlan::clean() };
    let (e0, e1, faults, sessions) = faulty_tcp_endpoints(plan0, plan1, soak_session_cfg(0xDEAD));
    let run = run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default())
        .expect("inference must survive disconnects");
    assert_eq!(run.logits, baseline, "logits diverged across reconnects");

    let disconnects: u64 = faults.iter().map(|f| f.stats().disconnects).sum();
    assert!(disconnects >= 1, "no disconnect was injected — test is vacuous");
    let reconnects: u64 = sessions.iter().map(|s| s.telemetry().reconnects).sum();
    assert!(reconnects >= 1, "sessions never reconnected despite {disconnects} disconnects");
}

/// Clean TCP loopback run (no faults): sanity that the real socket path
/// alone is transparent to the protocol.
#[test]
fn tiny_cnn_tcp_loopback_clean_run_matches() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 79);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();
    let baseline = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
        .expect("clean run")
        .logits;

    let (e0, e1, _faults, _sessions) =
        faulty_tcp_endpoints(FaultPlan::clean(), FaultPlan::clean(), soak_session_cfg(1));
    let run =
        run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default()).expect("tcp run");
    assert_eq!(run.logits, baseline);
}

/// An unrecoverable link (everything dropped, tight probe budget) must
/// surface a typed transport error through the whole engine stack — not a
/// panic, not a hang.
#[test]
fn dead_link_degrades_to_typed_error() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 80);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();

    let black_hole = FaultPlan { drop_per_mille: 1000, ..FaultPlan::clean() };
    let scfg = SessionConfig {
        probe_interval: Duration::from_millis(5),
        max_probes: 10,
        ..SessionConfig::default()
    };
    let (e0, e1, _faults, _sessions) = faulty_mem_endpoints(black_hole.clone(), black_hole, scfg);
    let err = run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default())
        .expect_err("a black-hole link cannot complete an inference");
    match err {
        ProtocolError::Transport(
            TransportError::RetriesExhausted(_)
            | TransportError::Timeout
            | TransportError::Disconnected,
        )
        | ProtocolError::Desync(_) => {}
        other => panic!("expected a typed transport/desync error, got: {other}"),
    }
}

/// A party that returns early drops its context, and with it its endpoint,
/// at once: the peer blocked in `recv` fails with `Disconnected` instead of
/// sitting out its 5 s receive deadline into a `Timeout`.
#[test]
fn early_return_disconnects_the_blocked_peer() {
    let cfg = ProtocolConfig::paper(16);
    let deadline = Duration::from_secs(5);
    let started = Instant::now();
    let (_, peer) = run_pair(duplex_with_timeout(Some(deadline)), &cfg, |ctx| match ctx.id {
        PartyId::User => None,
        PartyId::ModelProvider => Some(ctx.ep.recv()),
    });
    assert_eq!(peer.map(|r| r.map(|b| b.len())), Some(Err(TransportError::Disconnected)));
    assert!(started.elapsed() < deadline, "peer waited out its deadline");
}

/// A wrong-length image fails on the user side; the model runner must
/// return that typed error promptly — no panic, and no provider left
/// waiting out its receive deadline.
#[test]
fn wrong_length_image_fails_typed_and_promptly() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 82);
    let cfg = ProtocolConfig::paper(16);
    let short = &data.test()[0].image[1..];
    let deadline = Duration::from_secs(5);
    let started = Instant::now();
    let err = run_two_party(
        duplex_with_timeout(Some(deadline)),
        &model,
        &cfg,
        &[short],
        &RunPlan::default(),
    )
    .expect_err("a wrong-length image cannot be shared");
    assert!(matches!(err, ProtocolError::Shape(_)), "expected a shape error, got: {err}");
    assert!(started.elapsed() < deadline, "runner waited out the receive deadline");
}

/// Fault-metrics soak: a fault-injected TCP inference with metrics
/// registries attached to both sessions. The exported `session.*` counters
/// must mirror the session telemetry *exactly*, and the detected-fault
/// counters must reconcile with the seeded fault schedule: every injected
/// corruption is one checksum failure (and one Nak) on the peer, every
/// injected disconnect forces at least one reconnect.
#[test]
#[ignore = "soak: release-mode CI fault-matrix job runs this"]
fn fault_metrics_soak_exported_counters_match_schedule() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 81);
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();
    let baseline = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
        .expect("clean run")
        .logits;

    for seed in [7u64, 13, 29] {
        // Corruption + duplication (event-driven recovery, deterministic
        // per seed) plus one forced disconnect per side.
        let mk_plan = |s: u64, cut: u64| FaultPlan {
            seed: s,
            corrupt_per_mille: 25,
            duplicate_per_mille: 25,
            disconnect_at: vec![cut],
            ..FaultPlan::clean()
        };
        let plan0 = mk_plan(0xfa_0000 + seed, 7 + seed % 5);
        let plan1 = mk_plan(0xfb_0000 + seed, 14 + seed % 7);
        let (e0, e1, faults, sessions) = faulty_tcp_endpoints(plan0, plan1, soak_session_cfg(seed));
        let regs = [MetricsRegistry::new(), MetricsRegistry::new()];
        for (sess, reg) in sessions.iter().zip(&regs) {
            sess.attach_metrics(reg);
        }

        let run = run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default())
            .unwrap_or_else(|e| panic!("seed {seed}: inference failed under faults: {e}"));
        assert_eq!(run.logits, baseline, "seed {seed}: logits diverged under faults");

        let mut reconnects = 0u64;
        for (side, (sess, reg)) in sessions.iter().zip(&regs).enumerate() {
            let t = sess.telemetry();
            let snap = reg.snapshot();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            // 1. The export is an exact mirror of the telemetry.
            for (name, want) in [
                ("session.retransmits", t.retransmits),
                ("session.reconnects", t.reconnects),
                ("session.naks_sent", t.naks_sent),
                ("session.corrupt_frames", t.corrupt_frames),
                ("session.duplicates", t.duplicates),
                ("session.gaps", t.gaps),
                ("session.backoff_sleeps", t.backoff_sleeps),
                ("session.backoff_ms", t.backoff_ms),
            ] {
                assert_eq!(
                    counter(name),
                    want,
                    "seed {seed} side {side}: exported {name} drifted from telemetry"
                );
            }
            // 2. Every corruption injected by the *peer's* proxy is one
            //    checksum failure here — no silent acceptance, no double
            //    counting.
            let peer_injected = faults[1 - side].stats();
            assert_eq!(
                t.corrupt_frames, peer_injected.corrupted,
                "seed {seed} side {side}: detected corruptions != injected"
            );
            assert!(
                t.naks_sent >= t.corrupt_frames,
                "seed {seed} side {side}: corrupt frames must be Nak'd"
            );
            reconnects += t.reconnects;
        }
        let disconnects: u64 = faults.iter().map(|f| f.stats().disconnects).sum();
        assert!(disconnects >= 2, "seed {seed}: both planned disconnects must fire");
        assert!(
            reconnects >= disconnects,
            "seed {seed}: {disconnects} disconnects but only {reconnects} reconnects recorded"
        );
    }
}

/// Batched service pass with a **background dealer** over a lossy link:
/// the dealer is party-local offline machinery, so link faults must not
/// perturb the batched online pass — the chunked `run_batch` logits must
/// stay bit-identical to the clean in-memory service run, with bounded
/// repair work. One seeded schedule keeps the fault-matrix job's runtime
/// in budget; the per-image lossy sweep above covers the seed space.
#[test]
#[ignore = "soak: release-mode CI fault-matrix job runs this"]
fn batched_dealer_service_bit_identical_under_lossy_link() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 91);
    let cfg = ProtocolConfig::paper(16);
    let images: Vec<&[f32]> = data.test().iter().take(4).map(|s| s.image.as_slice()).collect();

    // Clean baseline with the *same* consumption pattern (batch 2, two
    // chunks): local truncation makes logits a function of the per-lane
    // triple stream position, so the baseline must batch identically.
    let plan = RunPlan { batch: 2, ..RunPlan::default() };
    let baseline =
        run_two_party(duplex(), &model, &cfg, &images, &plan).expect("clean service run").logits;

    let seed = 91u64;
    let (e0, e1, faults, sessions) = faulty_mem_endpoints(
        FaultPlan::lossy(seed),
        FaultPlan::lossy(seed ^ 0xFFFF),
        soak_session_cfg(seed),
    );
    let dealer = DealerConfig { depth: 8, policy: ExhaustionPolicy::GenerateInline };
    let plan = RunPlan { dealer: Some(dealer), ..plan };
    let run = run_two_party((e0, e1), &model, &cfg, &images, &plan)
        .expect("dealer-backed service must survive the lossy link");
    assert_eq!(run.logits, baseline, "batched logits diverged under faults");

    let injected: u64 = faults
        .iter()
        .map(|f| {
            let s = f.stats();
            s.dropped + s.duplicated + s.corrupted + s.delayed
        })
        .sum();
    assert!(injected > 0, "lossy schedule never fired — soak is vacuous");
    for s in &sessions {
        assert!(s.telemetry().retransmits < 40_000, "unbounded retransmission under faults");
    }
}

/// Full LeNet5 soak over TCP loopback under five seeded schedules
/// (mixed faults plus disconnects). Heavy: run in release via
/// `cargo test --release -- --include-ignored` (the CI fault-matrix job).
#[test]
#[ignore = "heavy: release-mode CI fault-matrix job runs this"]
fn lenet5_tcp_soak_bit_identical_under_fault_matrix() {
    let data = SyntheticVision::mnist_like(2024);
    let mut net = FloatNet::init(&zoo::lenet5(), 9).expect("valid spec");
    net.train_epochs(&data, 1, 16, 0.05);
    let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())
        .expect("quantization succeeds");
    let cfg = ProtocolConfig::paper(16);
    let image = data.test()[0].image.as_slice();
    let baseline = run_two_party(duplex(), &model, &cfg, &[image], &RunPlan::default())
        .expect("clean run")
        .logits;

    for seed in [11u64, 22, 33, 44, 55] {
        let mut plan0 = FaultPlan::lossy(seed);
        let mut plan1 = FaultPlan::lossy(seed ^ 0xABCD);
        // Forced disconnects at schedule-dependent points early enough to
        // fire within the frame budget of one inference.
        plan0.disconnect_at = vec![6 + seed % 9];
        plan1.disconnect_at = vec![12 + seed % 11];
        let (e0, e1, faults, sessions) = faulty_tcp_endpoints(plan0, plan1, soak_session_cfg(seed));
        let run = run_two_party((e0, e1), &model, &cfg, &[image], &RunPlan::default())
            .unwrap_or_else(|e| panic!("seed {seed}: LeNet5 soak failed: {e}"));
        assert_eq!(run.logits, baseline, "seed {seed}: logits diverged under fault matrix");
        let injected: u64 = faults
            .iter()
            .map(|f| {
                let s = f.stats();
                s.dropped + s.duplicated + s.corrupted + s.delayed + s.disconnects
            })
            .sum();
        assert!(injected > 0, "seed {seed}: schedule never fired");
        for s in &sessions {
            assert!(s.telemetry().retransmits < 100_000, "seed {seed}: unbounded retries");
        }
    }
}
