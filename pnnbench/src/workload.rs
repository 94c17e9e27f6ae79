//! The three serving workloads, the server they run against, and the
//! load generator.
//!
//! Every workload runs the multi-tenant server over a loopback
//! `TcpAcceptor` with the `ServerConfig` that `aq2pnn-serve --dealer
//! background` builds, and clients that run `run_client` over
//! `TcpTransport` with `ProtocolConfig::paper(16)`, one session after
//! the other on one connection (a closed loop). The seed picks the image
//! order; the server only ever sees generated images.

use crate::check::{check_response, SessionRecord};
use crate::layers::CAT_BENCH;
use crate::shaper::{ShapedLink, WanProfile};
use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn::substrate::nn::data::SyntheticVision;
use aq2pnn::substrate::nn::float::FloatNet;
use aq2pnn::substrate::nn::quant::{QuantConfig, QuantModel};
use aq2pnn::substrate::nn::zoo;
use aq2pnn::substrate::obs::{ArgValue, LogSink, MetricsRegistry, Tracer};
use aq2pnn::substrate::transport::{TcpConfig, TcpTransport, Transport};
use aq2pnn_server::{
    demo_model, run_client, ClientConfig, InferenceServer, ModelRegistry, ServerConfig, ServerObs,
    TcpAcceptor,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Activation ring width ℓ1 of `ProtocolConfig::paper`, for every workload.
pub const Q1_BITS: u32 = 16;

/// Which model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The server crate's trained LeNet5 demo model and its test images.
    Lenet5,
    /// `zoo::alexnet_cifar()` at random initialization, quantized with
    /// synthetic CIFAR-shaped calibration images. Untrained: the cost of
    /// a private inference depends only on the shapes.
    AlexnetCifar,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The served model.
    pub model: ModelKind,
    /// Images per session.
    pub images_per_session: usize,
    /// Images per batched online pass.
    pub batch: usize,
    /// Shaped WAN link on the client side, or plain loopback.
    pub wan: Option<WanProfile>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lenet5-sessions",
        model: ModelKind::Lenet5,
        images_per_session: 1,
        batch: 1,
        wan: None,
    },
    Workload {
        name: "alexnet-batch",
        model: ModelKind::AlexnetCifar,
        images_per_session: 16,
        batch: 8,
        wan: None,
    },
    Workload {
        name: "lenet5-wan",
        model: ModelKind::Lenet5,
        images_per_session: 8,
        batch: 8,
        wan: Some(WanProfile::ROADMAP),
    },
];

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Online passes one session runs.
    #[must_use]
    pub fn passes_per_session(&self) -> usize {
        self.images_per_session.div_ceil(self.batch)
    }
}

/// A derived model plus the generated images its sessions send.
pub struct Fixture {
    /// Registry name the clients request.
    pub model_name: &'static str,
    /// The quantized model (public architecture + deterministic shares).
    pub model: Arc<QuantModel>,
    /// Candidate input images; the seed picks their order.
    pub images: Vec<Vec<f32>>,
    /// Logits per image.
    pub classes: usize,
}

impl ModelKind {
    /// Derives the model and its images, deterministically.
    ///
    /// # Errors
    ///
    /// A training or quantization failure, as text.
    pub fn derive(self) -> Result<Fixture, String> {
        match self {
            ModelKind::Lenet5 => {
                let (data, model) = demo_model("lenet5")?;
                Ok(Fixture {
                    model_name: "lenet5",
                    model: Arc::new(model),
                    images: data.test_images(),
                    classes: data.classes(),
                })
            }
            ModelKind::AlexnetCifar => {
                let data = SyntheticVision::generate(10, 3, 32, 32, 32, 64, 0.3, 2024);
                let net = FloatNet::init(&zoo::alexnet_cifar(), 9).map_err(|e| e.to_string())?;
                let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())
                    .map_err(|e| e.to_string())?;
                Ok(Fixture {
                    model_name: "alexnet-cifar",
                    model: Arc::new(model),
                    images: data.test_images(),
                    classes: data.classes(),
                })
            }
        }
    }
}

/// The `ServerConfig` `aq2pnn-serve --dealer background` builds.
#[must_use]
pub fn server_config() -> ServerConfig {
    ServerConfig {
        dealer: Some(DealerConfig { depth: 16, policy: ExhaustionPolicy::GenerateInline }),
        ..ServerConfig::default()
    }
}

/// A running server on a loopback port.
pub struct Target {
    server: InferenceServer,
    addr: String,
    /// The sinks the server records into (disabled unless traced).
    pub obs: ServerObs,
}

impl Target {
    /// Starts a server for `fixture`. With `traced`, the server records
    /// spans and metrics; its log lines are silenced either way.
    ///
    /// # Errors
    ///
    /// The loopback bind failed.
    pub fn start(fixture: &Fixture, traced: bool) -> Result<Target, String> {
        let obs = if traced {
            ServerObs { tracer: Tracer::new(), metrics: MetricsRegistry::new() }
        } else {
            ServerObs::default()
        };
        obs.tracer.set_log_sink(LogSink::Silent);
        let mut registry = ModelRegistry::new();
        registry.insert(fixture.model_name, (*fixture.model).clone());
        let acceptor =
            TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default()).map_err(|e| e.to_string())?;
        let addr = acceptor.local_addr().map_err(|e| e.to_string())?.to_string();
        let server =
            InferenceServer::start(Box::new(acceptor), server_config(), registry, obs.clone());
        Ok(Target { server, addr, obs })
    }

    /// The server's loopback address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's session accounting.
    #[must_use]
    pub fn counters(&self) -> aq2pnn_server::ServerCounters {
        self.server.counters()
    }

    /// Drains the server (finishes in-flight sessions, joins workers).
    pub fn stop(mut self) {
        let _ = self.server.drain();
    }
}

/// Everything one session needs besides its images.
pub struct SessionCtx<'a> {
    /// The workload being run.
    pub workload: &'a Workload,
    /// Model and images.
    pub fixture: &'a Fixture,
}

/// Runs one session against the server at `addr` and checks its
/// response. Latency runs from `origin` (the due time in an open loop,
/// else the dial) to the checked logits. The benchmark's own spans go to
/// `tracer`: the serving target's, so only sessions to the traced server
/// record any.
pub fn run_session(
    ctx: &SessionCtx<'_>,
    addr: &str,
    tracer: &Tracer,
    images: Vec<usize>,
    origin: Instant,
) -> SessionRecord {
    let traced = tracer.is_enabled();
    let started = Instant::now();
    let session_span = tracer.begin("session", CAT_BENCH);
    let connect_span = tracer.begin("connect", CAT_BENCH);
    let dialed = TcpTransport::connect(addr, TcpConfig::default());
    let (link, counters): (Arc<dyn Transport>, _) = match (dialed, ctx.workload.wan) {
        (Err(e), _) => {
            tracer.end(connect_span);
            tracer.end(session_span);
            return SessionRecord::failed(images, traced, format!("connect: {e}"));
        }
        (Ok(tcp), None) => (Arc::new(tcp), None),
        (Ok(tcp), Some(profile)) => {
            // The TCP handshake is one round trip on a real WAN.
            std::thread::sleep(profile.rtt());
            let shaped = ShapedLink::new(Arc::new(tcp), profile);
            let counters = shaped.counters();
            (Arc::new(shaped), Some(counters))
        }
    };
    let connect_ms = ms(started.elapsed());
    tracer.end(connect_span);

    let cfg = ClientConfig {
        model: ctx.fixture.model_name.into(),
        q1_bits: Q1_BITS,
        batch: ctx.workload.batch,
        ..ClientConfig::default()
    };
    let refs: Vec<&[f32]> = images.iter().map(|&i| ctx.fixture.images[i].as_slice()).collect();
    let run_span = tracer.begin("run_client", CAT_BENCH);
    let run_started = Instant::now();
    let outcome = run_client(Arc::clone(&link), &cfg, &ctx.fixture.model, &refs);
    let run_ms = ms(run_started.elapsed());
    let stream = outcome.as_ref().map_or(0, |run| run.stream);
    tracer.end_with(run_span, &[("stream", ArgValue::U64(stream))]);
    let checked = outcome.map_err(|e| e.to_string()).and_then(|run| {
        check_response(&run.logits, images.len(), ctx.fixture.classes).map(|top1| (run, top1))
    });
    let latency_ms = ms(origin.elapsed());
    // Teardown (joining a shaper pump) stays outside the timed window.
    drop(link);
    let record = match checked {
        Ok((run, top1)) => {
            let (link_msgs, link_bytes) = counters.map_or((0, 0), |c| c.totals());
            #[allow(clippy::cast_precision_loss)] // nanosecond counts < 2^53
            let online_ms = run.online_ns as f64 / 1e6;
            SessionRecord {
                images,
                traced,
                latency_ms,
                connect_ms,
                run_ms,
                online_ms,
                payload_bytes: run.payload_bytes,
                retransmits: run.telemetry.retransmits,
                naks_sent: run.telemetry.naks_sent,
                link_msgs,
                link_bytes,
                stream: run.stream,
                top1,
                error: None,
            }
        }
        Err(e) => SessionRecord::failed(images, traced, e),
    };
    tracer.end_with(
        session_span,
        &[
            ("stream", ArgValue::U64(record.stream)),
            ("images", ArgValue::U64(record.images.len() as u64)),
            ("payload_bytes", ArgValue::U64(record.payload_bytes)),
        ],
    );
    record
}

/// Milliseconds in a duration, with full precision.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: the benchmark's seeded generator for the image order.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            #[allow(clippy::cast_possible_truncation)] // i < n fits usize
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// The images session `index` sends: consecutive entries of the seeded
/// order, wrapping around.
#[must_use]
pub fn session_images(order: &[usize], index: usize, count: usize) -> Vec<usize> {
    (0..count).map(|j| order[(index * count + j) % order.len()]).collect()
}

/// Runs the timed phase: a closed loop on one connection, sessions going
/// to `targets` in turn (session `i` to `targets[i % targets.len()]`)
/// until `seconds` have passed. Returns the records in session order and
/// the wall time from the start of the phase to the last completion.
pub fn generate_load(
    ctx: &SessionCtx<'_>,
    targets: &[&Target],
    seed: u64,
    seconds: f64,
) -> (Vec<SessionRecord>, Duration) {
    let order = SplitMix::new(seed).permutation(ctx.fixture.images.len());
    let mut records = Vec::new();
    let epoch = Instant::now();
    while epoch.elapsed().as_secs_f64() < seconds {
        let i = records.len();
        let target = targets[i % targets.len()];
        let images = session_images(&order, i, ctx.workload.images_per_session);
        records.push(run_session(ctx, target.addr(), &target.obs.tracer, images, Instant::now()));
    }
    (records, epoch.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_repeat_and_differ_across_seeds() {
        let a = SplitMix::new(3).permutation(50);
        assert_eq!(a, SplitMix::new(3).permutation(50));
        assert_ne!(a, SplitMix::new(4).permutation(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_session_counts_as_failed() {
        let spec = zoo::tiny_cnn(4);
        let data = SyntheticVision::tiny(4, 5);
        let net = FloatNet::init(&spec, 5).expect("valid spec");
        let model = QuantModel::quantize(&net, &data.calibration(4), &QuantConfig::int8())
            .expect("quantizes");
        let fixture = Fixture {
            model_name: "tiny",
            model: Arc::new(model),
            images: data.test_images(),
            classes: 4,
        };
        // A peer that accepts the connection and hangs up at once.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let dropper = std::thread::spawn(move || drop(listener.accept().expect("accept")));
        let ctx = SessionCtx { workload: &WORKLOADS[0], fixture: &fixture };
        let r = run_session(&ctx, &addr, &Tracer::disabled(), vec![0], Instant::now());
        dropper.join().expect("dropper thread");
        assert!(!r.ok(), "a dropped session must fail, got {r:?}");
        let t = crate::check::Tally::of(&[r], |_| 0);
        assert_eq!((t.attempted, t.failed, t.images), (1, 1, 0));
    }

    #[test]
    fn every_workload_is_found_by_name() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
