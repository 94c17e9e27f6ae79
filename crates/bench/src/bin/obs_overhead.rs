//! Tracing-overhead gate for the nonlinear hot path (CI threshold check).
//!
//! A traced run of `secure_sign` opens three stage spans per party per
//! batch (`a2bm`, `ot-flow`, `reveal`); everywhere else the hot loop only
//! pays an `is_enabled()` check on a disabled tracer. This binary proves
//! the whole observability layer stays out of the protocol's way: it
//! times full two-party `secure_sign` batches with span recording on and
//! off, interleaved trial-by-trial so drift hits both variants equally,
//! takes the per-variant **minimum** over the trials (the classic
//! low-noise wall-clock estimator: every disturbance only ever adds
//! time), and exits nonzero when the traced minimum exceeds the untraced
//! one by more than the threshold (`OBS_OVERHEAD_MAX_PCT`, default 3).
//! The engine is pinned to one thread for the measurement — fan-out
//! scheduling jitter at conv-layer batch sizes is an order of magnitude
//! larger than the tracing cost this gate is after.
//!
//! Before any timing, both variants run once and the sign flags are
//! checked against the plaintext `(x_0 + x_1) mod Q > 0` — the gate can
//! never pass on a run that broke the protocol. The leakage harness
//! separately proves the traced wire transcript is byte-identical; this
//! binary guards the *time* axis.
//!
//! A second gate covers the **server online pass**: full `run_client`
//! sessions against an in-process [`aq2pnn_server::InferenceServer`]
//! with the whole telemetry stack off (no-op metrics, no recorder, no
//! SLO) vs. on (recording registry, per-session flight recorder, SLO
//! histograms, and a live admin scraper polling `/metrics` throughout).
//! The timed interval is the client-observed secure online pass
//! ([`aq2pnn_server::ClientRun::online_ns`]); the same minimum-of-trials
//! estimator and threshold apply.
//!
//! The run emits `BENCH_obs_overhead.json` (override with
//! `BENCH_OBS_OVERHEAD_JSON`) so CI can archive the measurement next to
//! the kernel and nonlinear numbers.

use aq2pnn::abrelu::secure_sign;
use aq2pnn::sim::run_pair;
use aq2pnn::substrate::obs::{MetricsRegistry, Tracer};
use aq2pnn::{ProtocolConfig, ReluMode};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_server::{
    demo_model, mem_acceptor, run_client, ClientConfig, InferenceServer, MemConnector,
    ModelRegistry, ServerConfig, ServerObs,
};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::duplex;
use rand::SeedableRng;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (ring bits, batch elements): the paper's INT12/INT16 activation
/// carriers at a conv-layer-sized batch.
const CASES: &[(u32, usize)] = &[(12, 16384), (16, 16384)];

fn make_shares(bits: u32, n: usize) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
    let ring = Ring::new(bits);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b5e ^ u64::from(bits) ^ n as u64);
    let s0: Vec<u64> = (0..n).map(|_| ring.sample(&mut rng)).collect();
    let s1: Vec<u64> = (0..n).map(|_| ring.sample(&mut rng)).collect();
    let expect: Vec<u8> = s0
        .iter()
        .zip(&s1)
        .map(|(&a, &b)| u8::from(ring.decode_signed(ring.add(a, b)) > 0))
        .collect();
    (s0, s1, expect)
}

/// One full two-party `secure_sign` batch; `traced` attaches an enabled
/// span recorder + metric store to each party before the run.
fn run_sign(cfg: &ProtocolConfig, s0: &[u64], s1: &[u64], traced: bool) -> Vec<u8> {
    let ring = cfg.q1();
    let (s0, s1) = (s0.to_vec(), s1.to_vec());
    let (flags, _) = run_pair(duplex(), cfg, move |ctx| {
        if traced {
            ctx.set_obs(Tracer::new(), MetricsRegistry::new());
        }
        let raw = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        let t = RingTensor::from_raw(ring, vec![raw.len()], raw).unwrap();
        let share = AShare::from_tensor(t);
        secure_sign(ctx, &share, ReluMode::RevealedSign).unwrap().flags.unwrap()
    });
    flags
}

/// Wall-clock ns/iter over `iters` back-to-back batches, timed on the
/// user party's thread *inside* the protocol closure — thread
/// spawn/join, context setup and share construction stay outside the
/// measured interval, leaving only the protocol (and any tracing cost
/// injected into it).
fn time_sign(cfg: &ProtocolConfig, s0: &[u64], s1: &[u64], traced: bool, iters: u32) -> f64 {
    let ring = cfg.q1();
    let (s0, s1) = (s0.to_vec(), s1.to_vec());
    let (user_ns, _) = run_pair(duplex(), cfg, move |ctx| {
        if traced {
            ctx.set_obs(Tracer::new(), MetricsRegistry::new());
        }
        let raw = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        let t = RingTensor::from_raw(ring, vec![raw.len()], raw).unwrap();
        let share = AShare::from_tensor(t);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(secure_sign(ctx, &share, ReluMode::RevealedSign).unwrap());
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
    });
    user_ns
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One in-process inference server, telemetry fully off or fully on.
struct ServerVariant {
    server: InferenceServer,
    dial: MemConnector,
    admin: Option<std::net::SocketAddr>,
    flightrec_dir: Option<std::path::PathBuf>,
}

fn start_server(model: &aq2pnn_nn::quant::QuantModel, traced: bool) -> ServerVariant {
    let flightrec_dir = traced
        .then(|| std::env::temp_dir().join(format!("aq2pnn-obs-overhead-{}", std::process::id())));
    let cfg = ServerConfig {
        max_sessions: 2,
        queue_depth: 2,
        slo_ms: traced.then_some(600_000),
        flightrec_dir: flightrec_dir.clone(),
        ..ServerConfig::default()
    };
    let mut registry = ModelRegistry::new();
    registry.insert("tiny", model.clone());
    let (acc, dial) = mem_acceptor();
    let obs = if traced {
        ServerObs { metrics: MetricsRegistry::new(), ..ServerObs::default() }
    } else {
        ServerObs::default()
    };
    let mut server = InferenceServer::start(Box::new(acc), cfg, registry, obs);
    let admin = traced.then(|| server.start_admin("127.0.0.1:0").expect("admin endpoint"));
    ServerVariant { server, dial, admin, flightrec_dir }
}

/// One full client session; returns the client-observed online-pass
/// nanoseconds (admission, session setup and preparation excluded).
fn client_online_ns(
    dial: &MemConnector,
    model: &aq2pnn_nn::quant::QuantModel,
    images: &[&[f32]],
) -> f64 {
    let cfg = ClientConfig {
        model: "tiny".into(),
        q1_bits: 16,
        batch: images.len(),
        ..ClientConfig::default()
    };
    let run = run_client(dial.connect().expect("connect"), &cfg, model, images)
        .expect("overhead-gate client session");
    #[allow(clippy::cast_precision_loss)]
    let ns = run.online_ns as f64;
    ns
}

/// The server-online-path overhead case: min-of-trials online-pass time
/// against a telemetry-off server vs. a fully instrumented one being
/// scraped throughout.
fn server_case(
    model: &aq2pnn_nn::quant::QuantModel,
    images: &[Vec<f32>],
    trials: usize,
) -> CaseResult {
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();

    let mut plain = start_server(model, false);
    let mut traced = start_server(model, true);

    // Correctness gate: both variants produce identical logits.
    let ccfg = ClientConfig {
        model: "tiny".into(),
        q1_bits: 16,
        batch: refs.len(),
        ..ClientConfig::default()
    };
    let run_p = run_client(plain.dial.connect().expect("connect"), &ccfg, model, &refs)
        .expect("plain reference run");
    let run_t = run_client(traced.dial.connect().expect("connect"), &ccfg, model, &refs)
        .expect("traced reference run");
    assert_eq!(run_p.logits, run_t.logits, "telemetry changed the inference result");

    // Live scraper against the traced server's admin endpoint for the
    // whole measurement — the realistic worst case for the online path.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = traced.admin.map(|addr| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if aq2pnn_transport::http_get(addr, "/metrics", Duration::from_secs(2)).is_ok() {
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            scrapes
        })
    });

    let mut plain_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    for _ in 0..trials {
        plain_ns = plain_ns.min(client_online_ns(&plain.dial, model, &refs));
        traced_ns = traced_ns.min(client_online_ns(&traced.dial, model, &refs));
    }

    stop.store(true, Ordering::SeqCst);
    if let Some(h) = scraper {
        let scrapes = h.join().expect("scraper thread");
        assert!(scrapes > 0, "admin scraper never completed a scrape");
    }
    let _ = plain.server.drain();
    let _ = traced.server.drain();
    if let Some(dir) = traced.flightrec_dir.take() {
        let _ = std::fs::remove_dir_all(dir);
    }

    CaseResult {
        case: "server_online".to_string(),
        plain_ns,
        traced_ns,
        overhead_pct: (traced_ns / plain_ns - 1.0) * 100.0,
    }
}

struct CaseResult {
    case: String,
    plain_ns: f64,
    traced_ns: f64,
    overhead_pct: f64,
}

fn main() -> ExitCode {
    let threshold = env_f64("OBS_OVERHEAD_MAX_PCT", 3.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let trials = env_f64("OBS_OVERHEAD_TRIALS", 21.0).max(1.0) as usize;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let iters = env_f64("OBS_OVERHEAD_ITERS", 6.0).max(1.0) as u32;

    // One-thread pinning: remove parallel-engine scheduling jitter from
    // the measurement (the tracing layer under test is thread-agnostic).
    if std::env::var("AQ2PNN_THREADS").is_err() {
        std::env::set_var("AQ2PNN_THREADS", "1");
    }

    let mut results = Vec::new();
    for &(bits, n) in CASES {
        let (s0, s1, expect) = make_shares(bits, n);
        let cfg = ProtocolConfig::paper(bits);
        let case = format!("l{bits}_n{n}");

        // Correctness gate before any timing: both variants must produce
        // the plaintext sign on every element.
        assert_eq!(run_sign(&cfg, &s0, &s1, false), expect, "wrong sign flags (plain): {case}");
        assert_eq!(run_sign(&cfg, &s0, &s1, true), expect, "wrong sign flags (traced): {case}");

        // Wall-clock noise on a blocking two-thread protocol dwarfs the
        // effect under test, so a breach triggers a bounded re-measure:
        // a real regression fails every attempt, a scheduler hiccup
        // doesn't survive three.
        let measure = || {
            let mut plain_ns = f64::INFINITY;
            let mut traced_ns = f64::INFINITY;
            for _ in 0..trials {
                plain_ns = plain_ns.min(time_sign(&cfg, &s0, &s1, false, iters));
                traced_ns = traced_ns.min(time_sign(&cfg, &s0, &s1, true, iters));
            }
            (plain_ns, traced_ns, (traced_ns / plain_ns - 1.0) * 100.0)
        };
        let mut best = measure();
        for _ in 0..2 {
            if best.2 < threshold {
                break;
            }
            println!("obs-overhead {case}: {:+.2}% breaches threshold, re-measuring", best.2);
            let next = measure();
            if next.2 < best.2 {
                best = next;
            }
        }
        let (plain_ns, traced_ns, overhead_pct) = best;
        println!(
            "obs-overhead {case}: plain {:.2} ms, traced {:.2} ms, overhead {overhead_pct:+.2}%",
            plain_ns / 1e6,
            traced_ns / 1e6
        );
        results.push(CaseResult { case, plain_ns, traced_ns, overhead_pct });
    }

    // Server online path, same retry policy: a full client/server session
    // is noisier still, so a breach re-measures against fresh servers.
    {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let server_trials = env_f64("OBS_OVERHEAD_SERVER_TRIALS", 7.0).max(1.0) as usize;
        let (data, model) = demo_model("tiny").expect("demo model");
        let images: Vec<Vec<f32>> = data.test_images().into_iter().take(2).collect();
        let mut best = server_case(&model, &images, server_trials);
        for _ in 0..2 {
            if best.overhead_pct < threshold {
                break;
            }
            println!(
                "obs-overhead {}: {:+.2}% breaches threshold, re-measuring",
                best.case, best.overhead_pct
            );
            let next = server_case(&model, &images, server_trials);
            if next.overhead_pct < best.overhead_pct {
                best = next;
            }
        }
        println!(
            "obs-overhead {}: plain {:.2} ms, traced {:.2} ms, overhead {:+.2}%",
            best.case,
            best.plain_ns / 1e6,
            best.traced_ns / 1e6,
            best.overhead_pct
        );
        results.push(best);
    }

    let path = std::env::var("BENCH_OBS_OVERHEAD_JSON")
        .unwrap_or_else(|_| "BENCH_obs_overhead.json".to_string());
    write_report(&path, &results, threshold).expect("report written");
    println!("wrote {path}");

    let worst = results.iter().map(|r| r.overhead_pct).fold(f64::NEG_INFINITY, f64::max);
    if worst >= threshold {
        eprintln!("obs-overhead: FAIL — worst overhead {worst:+.2}% >= {threshold}% threshold");
        return ExitCode::FAILURE;
    }
    println!("obs-overhead: PASS — worst overhead {worst:+.2}% < {threshold}% threshold");
    ExitCode::SUCCESS
}

/// Hand-rolled serialization — the offline workspace carries no JSON
/// dependency.
fn write_report(path: &str, results: &[CaseResult], threshold: f64) -> std::io::Result<()> {
    let mut out = format!("{{\n  \"threshold_pct\": {threshold},\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"plain_ns\": {:.1}, \"traced_ns\": {:.1}, \
             \"overhead_pct\": {:.3}}}{sep}\n",
            r.case, r.plain_ns, r.traced_ns, r.overhead_pct
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::File::create(path)?.write_all(out.as_bytes())
}
