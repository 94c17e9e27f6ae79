//! Batched-service throughput: images/sec and online-pass latency of the
//! prepared LeNet5 pipeline as the batch size `B` grows, with the offline
//! dealer inline (cold) vs. backgrounded and pre-warmed (warm).
//!
//! The harness mirrors `sim::run_two_party` but times every
//! online pass individually on the user side. Passes are separated by a
//! think-time gap (a request-arrival interval, not counted) — the regime
//! the background dealer exists for: with gaps between requests, triple
//! generation hides in the idle time instead of sitting on the online
//! critical path, so the *cold* configuration pays the offline Z-GEMMs
//! inside each timed pass and the *warm* one does not.
//!
//! Wall-clock on the in-process duplex measures pure compute; the
//! batching win proper — one message schedule per layer serving all `B`
//! images — is a round-trip amortization, so each pass's measured byte
//! and message counts are additionally projected through the repo's
//! [`NetworkModel`] (`projected = wall + transfer_seconds(bytes/2,
//! msgs/2)`, the half-duplex convention of `aq2pnn-accel`) on the paper's
//! 1 Gbps/50 µs LAN and on a 200 Mbps/40 ms-RTT WAN.
//!
//! Per-phase [`ChannelStats`] snapshots taken after preparation and after
//! the timed passes prove the dealer claim structurally: **no
//! `offline`-prefixed phase gains a byte during the timed passes** — the
//! bench asserts it, so a regression fails loudly.
//!
//! A second sweep measures the **multi-tenant server** (`aq2pnn-server`
//! over the in-process [`mem_acceptor`]): 1/4/16 concurrent clients each
//! running a full admission → session → inference round trip, plus an
//! overload burst against a one-slot server that measures how fast a
//! `Shed` verdict reaches the extra dialers. Rows land in the same JSON
//! under `server_results` with per-client completion p50/p99, aggregate
//! images/sec, shed counts and shed-reply latency, and the drain report.
//! Each server config additionally emits `server.slo` rows — p50/p99 per
//! latency class (admission / online / e2e) read from the server's live
//! `server.slo.*_ms` histograms, the inside-the-server view of what the
//! per-client timings measure from the outside.
//!
//! Emits `BENCH_service.json` (override with `BENCH_SERVICE_JSON`):
//! per-config measured/LAN/WAN images-per-sec, pass and per-image p50/p99,
//! online bytes and messages per pass, dealer hit/miss counters, and the
//! `b8_vs_sequential_speedup` acceptance ratio (warm batch-8 over warm
//! one-at-a-time service rate on the WAN profile, where per-message
//! latency dominates). Knobs: `THROUGHPUT_BATCHES` (comma-separated `B`
//! list, default `1,2,4,8,16`), `THROUGHPUT_TRIALS` (timed passes per
//! configuration, default 10), `SERVER_CLIENTS` (comma-separated client
//! counts, default `1,4,16`), `SERVER_CLIENT_IMAGES` (images per client,
//! default 2).

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn::engine::BatchInput;
use aq2pnn::prepared::PreparedModel;
use aq2pnn::substrate::obs::MetricsRegistry;
use aq2pnn::{IdealOracle, PartyContext, ProtocolConfig};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{duplex, ChannelStats, NetworkModel};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed passes before measurement starts (first-touch allocations,
/// think-time calibration).
const WARMUP_PASSES: usize = 1;

/// A wide-area profile where per-message latency dominates: 200 Mbps,
/// 40 ms RTT (20 ms one-way) — the regime batching is for.
fn wan() -> NetworkModel {
    NetworkModel { bandwidth_bps: 200e6, latency_s: 20e-3, per_message_overhead_bytes: 66 }
}

/// One measured configuration: `trials` timed batched passes at batch
/// size `batch`, dealer inline (`warm == false`) or backgrounded and
/// pre-warmed (`warm == true`).
struct Measurement {
    batch: usize,
    warm: bool,
    /// Wall time of each timed pass, user side.
    per_pass_ns: Vec<u64>,
    /// Wire bytes (both directions, user endpoint) of one online pass.
    online_bytes_per_pass: u64,
    /// Messages (both directions, user endpoint) of one online pass.
    online_msgs_per_pass: u64,
    /// `offline`-phase bytes after prepare and after all passes — equal
    /// iff the online passes carried zero offline traffic.
    offline_bytes_after_prepare: u64,
    offline_bytes_final: u64,
    /// User-side dealer counters over the whole run (zeros when cold).
    dealer_hits: u64,
    dealer_misses: u64,
}

fn offline_bytes(stats: &ChannelStats) -> u64 {
    stats
        .phases
        .iter()
        .filter(|(k, _)| k.starts_with("offline"))
        .map(|(_, p)| p.total_bytes())
        .sum()
}

/// Runs one service configuration end to end and times the user side.
fn run_config(
    model: &QuantModel,
    cfg: &ProtocolConfig,
    images: &[Vec<f32>],
    batch: usize,
    warm: bool,
    trials: usize,
) -> Measurement {
    let passes = WARMUP_PASSES + trials;
    let dealer_cfg =
        DealerConfig { depth: (2 * batch).max(16), policy: ExhaustionPolicy::GenerateInline };
    let (e0, e1) = duplex();
    let oracle = Arc::new(IdealOracle::new(cfg.setup_seed ^ 0x0eac1e));
    let (cfg1, o1, m1) = (cfg.clone(), Arc::clone(&oracle), model.clone());
    let provider = std::thread::spawn(move || {
        let mut ctx = PartyContext::new(PartyId::ModelProvider, e1, cfg1, Some(o1));
        let mut prepared = PreparedModel::prepare(&mut ctx, &m1).expect("provider prepare");
        let _pool = warm.then(|| {
            let pool = prepared.spawn_dealer(&ctx, dealer_cfg);
            assert!(pool.wait_warm(Duration::from_secs(60)), "provider dealer never warmed");
            pool
        });
        for _ in 0..passes {
            prepared
                .run_batch(&mut ctx, BatchInput::Provider { batch })
                .expect("provider online pass");
        }
    });

    let mut ctx = PartyContext::new(PartyId::User, e0, cfg.clone(), Some(oracle));
    let metrics = MetricsRegistry::new();
    ctx.set_obs(aq2pnn::substrate::obs::Tracer::default(), metrics.clone());
    let mut prepared = PreparedModel::prepare(&mut ctx, model).expect("user prepare");
    let _pool = warm.then(|| {
        let pool = prepared.spawn_dealer(&ctx, dealer_cfg);
        assert!(pool.wait_warm(Duration::from_secs(60)), "user dealer never warmed");
        pool
    });
    let after_prepare = ctx.ep.stats();
    let refs: Vec<&[f32]> = (0..batch).map(|i| images[i % images.len()].as_slice()).collect();
    let mut per_pass_ns = Vec::with_capacity(trials);
    let (mut pass_bytes, mut pass_msgs) = (0u64, 0u64);
    // Request-arrival gap between passes; calibrated to the warmup pass
    // so the dealer gets one pass-worth of idle time to refill in.
    let mut think = Duration::ZERO;
    for i in 0..passes {
        let before = ctx.ep.totals();
        let t0 = Instant::now();
        prepared.run_batch(&mut ctx, BatchInput::User(&refs)).expect("user online pass");
        let dt = t0.elapsed();
        let delta = ctx.ep.totals().since(&before);
        pass_bytes = delta.total_bytes();
        pass_msgs = delta.messages_sent + delta.messages_received;
        if i >= WARMUP_PASSES {
            per_pass_ns.push(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        } else {
            think = dt.min(Duration::from_millis(500));
        }
        std::thread::sleep(think);
    }
    provider.join().expect("provider thread");
    let final_stats = ctx.ep.stats();
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    Measurement {
        batch,
        warm,
        per_pass_ns,
        online_bytes_per_pass: pass_bytes,
        online_msgs_per_pass: pass_msgs,
        offline_bytes_after_prepare: offline_bytes(&after_prepare),
        offline_bytes_final: offline_bytes(&final_stats),
        dealer_hits: counter("dealer.hits"),
        dealer_misses: counter("dealer.misses"),
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl Measurement {
    /// Mean pass seconds with a network's transfer cost added (the
    /// `aq2pnn-accel` half-duplex convention: one direction's bytes and
    /// messages ride the link serially).
    fn pass_seconds(&self, net: &NetworkModel) -> f64 {
        let total_ns: u64 = self.per_pass_ns.iter().sum();
        let wall = total_ns as f64 / 1e9 / self.per_pass_ns.len() as f64;
        wall + net.transfer_seconds(self.online_bytes_per_pass / 2, self.online_msgs_per_pass / 2)
    }

    fn images_per_sec(&self, net: &NetworkModel) -> f64 {
        self.batch as f64 / self.pass_seconds(net)
    }

    fn json_row(&self) -> String {
        let mut sorted = self.per_pass_ns.clone();
        sorted.sort_unstable();
        let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "    {{\"batch\": {}, \"dealer\": \"{}\", \"trials\": {}, \
             \"measured_images_per_sec\": {:.2}, \
             \"lan_images_per_sec\": {:.2}, \"wan_images_per_sec\": {:.2}, \
             \"pass_p50_ms\": {:.3}, \"pass_p99_ms\": {:.3}, \
             \"per_image_p50_ms\": {:.3}, \"per_image_p99_ms\": {:.3}, \
             \"online_bytes_per_pass\": {}, \"online_msgs_per_pass\": {}, \
             \"dealer_hits\": {}, \"dealer_misses\": {}, \
             \"offline_bytes_after_prepare\": {}, \
             \"offline_bytes_during_passes\": {}}}",
            self.batch,
            if self.warm { "warm" } else { "cold" },
            self.per_pass_ns.len(),
            self.images_per_sec(&NetworkModel::ideal()),
            self.images_per_sec(&NetworkModel::paper_lan()),
            self.images_per_sec(&wan()),
            ms(p50),
            ms(p99),
            ms(p50) / self.batch as f64,
            ms(p99) / self.batch as f64,
            self.online_bytes_per_pass,
            self.online_msgs_per_pass,
            self.dealer_hits,
            self.dealer_misses,
            self.offline_bytes_after_prepare,
            self.offline_bytes_final - self.offline_bytes_after_prepare,
        )
    }
}

/// One multi-client server configuration, measured end to end.
struct ServerMeasurement {
    clients: usize,
    images_per_client: usize,
    /// Wall time from first dial to last completion.
    wall_ns: u64,
    /// Per-client dial-to-logits time, completed clients only.
    per_client_ns: Vec<u64>,
    /// Dial-to-`Shed`-verdict time of each shed client (overload row).
    shed_reply_ns: Vec<u64>,
    counters: aq2pnn_server::ServerCounters,
    drain: aq2pnn_server::DrainReport,
    /// `(class_label, p50_ms, p99_ms, samples)` from the server's live
    /// `server.slo.*_ms` histograms (admission / online / e2e).
    slo: Vec<(String, f64, f64, u64)>,
}

/// Runs `clients` concurrent full client sessions against one shared
/// server over the in-process acceptor. With `overload` set, the server
/// gets a single serve slot and no queue, one occupant client pins it,
/// and the remaining dialers measure the shed path instead.
fn run_server_config(
    model: &QuantModel,
    images: &[Vec<f32>],
    clients: usize,
    images_per_client: usize,
    overload: bool,
) -> ServerMeasurement {
    use aq2pnn_server::{
        mem_acceptor, run_client, ClientConfig, ClientError, InferenceServer, ModelRegistry,
        ServerConfig, ServerObs,
    };
    let mut scfg = ServerConfig::default();
    if overload {
        scfg.max_sessions = 1;
        scfg.queue_depth = 0;
    } else {
        scfg.max_sessions = clients;
        scfg.queue_depth = clients;
    }
    scfg.dealer = Some(DealerConfig {
        depth: (2 * images_per_client).max(16),
        policy: ExhaustionPolicy::GenerateInline,
    });
    // Live SLO tracking with a never-violated budget: the rows report the
    // latency distribution, not a pass/fail verdict.
    scfg.slo_ms = Some(600_000);
    let mut registry = ModelRegistry::new();
    registry.insert("lenet5", model.clone());
    let (acc, dial) = mem_acceptor();
    let metrics = MetricsRegistry::new();
    let obs = ServerObs { metrics: metrics.clone(), ..ServerObs::default() };
    let mut server = InferenceServer::start(Box::new(acc), scfg, registry, obs);

    let ccfg = ClientConfig {
        model: "lenet5".into(),
        q1_bits: 16,
        batch: images_per_client,
        ..ClientConfig::default()
    };
    // One full dial-to-logits client session on its own thread; `n_images`
    // at the configured batch size, timed from the dial.
    let spawn_client = |n_images: usize, batch: usize| {
        let (d, m) = (dial.clone(), model.clone());
        let c = ClientConfig { batch, ..ccfg.clone() };
        let imgs = images.to_vec();
        std::thread::spawn(move || {
            let refs: Vec<&[f32]> =
                (0..n_images).map(|i| imgs[i % imgs.len()].as_slice()).collect();
            let t0 = Instant::now();
            let res = d
                .connect()
                .map_err(ClientError::from)
                .and_then(|link| run_client(link, &c, &m, &refs))
                .map(|run| run.logits.len());
            (u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX), res)
        })
    };

    let t_all = Instant::now();
    let mut per_client_ns = Vec::new();
    let mut shed_reply_ns = Vec::new();
    if overload {
        // Eight one-image passes keep the single slot busy for far longer
        // than the burst needs: sheds are answered at accept time.
        let occupant = spawn_client(8, 1);
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.counters().active == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let burst: Vec<_> = (0..clients).map(|_| spawn_client(1, 1)).collect();
        for h in burst {
            let (ns, res) = h.join().expect("burst client thread");
            match res {
                Err(ClientError::Shed) => shed_reply_ns.push(ns),
                other => panic!("overload burst expected Shed, got {other:?}"),
            }
        }
        let (ns, res) = occupant.join().expect("occupant thread");
        assert_eq!(res.expect("occupant session"), 8, "occupant got all its logits");
        per_client_ns.push(ns);
    } else {
        let handles: Vec<_> =
            (0..clients).map(|_| spawn_client(images_per_client, images_per_client)).collect();
        for h in handles {
            let (ns, res) = h.join().expect("client thread");
            let n = res.expect("client session");
            assert_eq!(n, images_per_client, "client got all its logits");
            per_client_ns.push(ns);
        }
    }
    let wall_ns = u64::try_from(t_all.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Drain first: it joins every session worker, so the counters read
    // below are final (a client returns slightly before its server-side
    // worker finishes billing the session).
    let drain = server.drain();
    let counters = server.counters();
    let snap = metrics.snapshot();
    let slo = aq2pnn::substrate::obs::SloClass::ALL
        .iter()
        .filter_map(|class| {
            let h = snap.histograms.get(class.hist_name())?;
            (h.count > 0).then(|| {
                (
                    class.label().to_string(),
                    aq2pnn::substrate::obs::quantile(h, 0.50),
                    aq2pnn::substrate::obs::quantile(h, 0.99),
                    h.count,
                )
            })
        })
        .collect();
    ServerMeasurement {
        clients,
        images_per_client,
        wall_ns,
        per_client_ns,
        shed_reply_ns,
        counters,
        drain,
        slo,
    }
}

impl ServerMeasurement {
    fn config_name(&self) -> String {
        if self.shed_reply_ns.is_empty() {
            format!("c{}", self.clients)
        } else {
            "overload".to_string()
        }
    }

    /// One `server.slo` row per latency class with recorded samples —
    /// the live-histogram view of what `client_p50/p99` measure from the
    /// outside.
    fn slo_rows(&self) -> Vec<String> {
        let name = self.config_name();
        self.slo
            .iter()
            .map(|(class, p50, p99, samples)| {
                format!(
                    "    {{\"row\": \"server.slo\", \"config\": \"server_{name}\", \
                     \"class\": \"{class}\", \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
                     \"samples\": {samples}}}"
                )
            })
            .collect()
    }

    fn json_row(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pcts = |v: &[u64]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            if s.is_empty() {
                (0.0, 0.0)
            } else {
                (ms(percentile(&s, 0.50)), ms(percentile(&s, 0.99)))
            }
        };
        let (p50, p99) = pcts(&self.per_client_ns);
        let (shed_p50, shed_p99) = pcts(&self.shed_reply_ns);
        let total_images = (self.per_client_ns.len() * self.images_per_client) as f64;
        let images_per_sec = total_images / (self.wall_ns as f64 / 1e9);
        format!(
            "    {{\"row\": \"server_{}\", \"clients\": {}, \"images_per_client\": {}, \
             \"images_per_sec\": {:.2}, \
             \"client_p50_ms\": {:.3}, \"client_p99_ms\": {:.3}, \
             \"shed\": {}, \"shed_reply_p50_ms\": {:.3}, \"shed_reply_p99_ms\": {:.3}, \
             \"admitted\": {}, \"completed\": {}, \
             \"drain_clean\": {}, \"drain_ms\": {}}}",
            self.config_name(),
            self.clients,
            self.images_per_client,
            images_per_sec,
            p50,
            p99,
            self.counters.shed,
            shed_p50,
            shed_p99,
            self.counters.admitted,
            self.counters.completed,
            self.drain.clean,
            self.drain.drain_ms,
        )
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn batch_list() -> Vec<usize> {
    std::env::var("THROUGHPUT_BATCHES")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&b| b >= 1).collect())
        .ok()
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16])
}

fn main() {
    let trials = env_usize("THROUGHPUT_TRIALS", 10);
    let batches = batch_list();
    eprintln!("throughput: LeNet5 paper(16), B = {batches:?}, {trials} trials per config");

    let data = SyntheticVision::mnist_like(2024);
    let mut net = FloatNet::init(&zoo::lenet5(), 9).expect("valid spec");
    net.train_epochs(&data, 1, 16, 0.05);
    let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())
        .expect("quantization succeeds");
    let cfg = ProtocolConfig::paper(16);
    let max_b = batches.iter().copied().max().unwrap_or(1);
    let images: Vec<Vec<f32>> =
        data.test().iter().cycle().take(max_b).map(|s| s.image.clone()).collect();

    let mut rows = Vec::new();
    let mut warm_runs: Vec<Measurement> = Vec::new();
    for &b in &batches {
        for warm in [false, true] {
            let m = run_config(&model, &cfg, &images, b, warm, trials);
            // The structural claim behind "warm p50 excludes offline
            // work": the online passes moved zero offline-phase bytes.
            assert_eq!(
                m.offline_bytes_final,
                m.offline_bytes_after_prepare,
                "B = {b} {}: online passes carried offline-phase traffic",
                if warm { "warm" } else { "cold" }
            );
            eprintln!(
                "  B = {b:2} {}: {:7.2} img/s measured, {:7.2} LAN, {:6.2} WAN \
                 ({} msgs/pass, dealer {}/{} hit/miss)",
                if warm { "warm" } else { "cold" },
                m.images_per_sec(&NetworkModel::ideal()),
                m.images_per_sec(&NetworkModel::paper_lan()),
                m.images_per_sec(&wan()),
                m.online_msgs_per_pass,
                m.dealer_hits,
                m.dealer_misses,
            );
            rows.push(m.json_row());
            if warm {
                warm_runs.push(m);
            }
        }
    }

    // Acceptance ratio: warm batch-8 service rate over warm sequential
    // (B = 1) on the WAN profile, where the per-message latency that
    // batching amortizes dominates the pass.
    let rate_at = |b: usize| warm_runs.iter().find(|m| m.batch == b);
    let speedup = match (rate_at(8), rate_at(1)) {
        (Some(m8), Some(m1)) => Some(m8.images_per_sec(&wan()) / m1.images_per_sec(&wan())),
        _ => None,
    };
    if let Some(s) = speedup {
        eprintln!("  warm B=8 vs sequential (WAN): {s:.2}x images/sec");
    }

    // Multi-tenant server sweep: concurrent clients over the in-process
    // acceptor, then an overload burst against a one-slot server.
    let client_counts: Vec<usize> = std::env::var("SERVER_CLIENTS")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&c| c >= 1).collect())
        .ok()
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4, 16]);
    let images_per_client = env_usize("SERVER_CLIENT_IMAGES", 2);
    let mut server_rows = Vec::new();
    for &c in &client_counts {
        let m = run_server_config(&model, &images, c, images_per_client, false);
        eprintln!(
            "  server {c:2} client(s): {:7.2} img/s aggregate, completed {}, drain {}",
            (m.per_client_ns.len() * m.images_per_client) as f64 / (m.wall_ns as f64 / 1e9),
            m.counters.completed,
            if m.drain.clean { "clean" } else { "forced" },
        );
        server_rows.push(m.json_row());
        server_rows.extend(m.slo_rows());
    }
    let m = run_server_config(&model, &images, 4, 1, true);
    eprintln!(
        "  server overload burst: {} shed with typed errors, occupant completed",
        m.counters.shed
    );
    server_rows.push(m.json_row());
    server_rows.extend(m.slo_rows());

    let out = format!(
        "{{\n  \"model\": \"lenet5\",\n  \"config\": \"paper16\",\n  \
         \"networks\": {{\"lan\": \"1 Gbps / 50 us\", \"wan\": \"200 Mbps / 40 ms RTT\"}},\n  \
         \"results\": [\n{}\n  ],\n  \
         \"server_results\": [\n{}\n  ],\n  \
         \"b8_vs_sequential_speedup\": {}\n}}\n",
        rows.join(",\n"),
        server_rows.join(",\n"),
        speedup.map_or_else(|| "null".to_string(), |s| format!("{s:.3}")),
    );
    let path =
        std::env::var("BENCH_SERVICE_JSON").unwrap_or_else(|_| "BENCH_service.json".to_string());
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .expect("report written");
    println!("wrote {path}");
}
