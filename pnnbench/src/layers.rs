//! Per-layer metrics of the traced run, and the trace export.
//!
//! Everything here is read from outside the program: the provider's
//! existing spans (through `CostReport::from_spans`), its metrics
//! registry and session counters, and the client-side timings the load
//! generator took around public calls.
//!
//! Provider span times include time spent waiting on the peer, so stage
//! and layer milliseconds do not partition compute.

use crate::check::SessionRecord;
use crate::stats::{median, Metric};
use crate::workload::Workload;
use aq2pnn::substrate::obs::chrome::chrome_trace;
use aq2pnn::substrate::obs::json::Json;
use aq2pnn::substrate::obs::report::{CostReport, PartyCost};
use aq2pnn::substrate::obs::SpanRecord;
use aq2pnn::substrate::obs::{quantile as hist_quantile, ArgValue, Histogram, MetricsSnapshot};
use aq2pnn::substrate::transport::NetworkModel;
use aq2pnn_server::ServerCounters;
use std::path::{Path, PathBuf};

/// Category of the benchmark's own spans.
pub const CAT_BENCH: &str = "bench";

/// Party id of the provider in the cost report and the trace export; the
/// benchmark's client-side spans go under party 0.
const PROVIDER: u32 = 1;

/// Protocol stages reported (`stage.<name>.*`).
const STAGES: [&str; 5] = ["gemm", "bnreq", "a2bm", "ot-flow", "reveal"];

/// Operator families reported (`op.<name>.*`) and the layer-name prefix
/// each covers.
const OPS: [(&str, &str); 4] =
    [("conv", "conv"), ("linear", "fc"), ("relu", "abrelu"), ("maxpool", "maxpool")];

/// Layer rows of both served models (`layer.<name>.ms`). A model without
/// one of these layers reports 0 for it.
pub const LAYERS: [&str; 24] = [
    "input", "conv0", "abrelu1", "maxpool2", "conv3", "abrelu4", "maxpool5", "conv6", "abrelu7",
    "fc7", "abrelu8", "conv8", "abrelu9", "fc9", "conv10", "abrelu10", "abrelu11", "fc11", "fc13",
    "abrelu14", "fc15", "abrelu16", "fc17", "output",
];

/// What the traced run measured, ready to be reduced to metrics.
pub struct TracedRun<'a> {
    /// The workload that ran.
    pub workload: &'a Workload,
    /// Every timed session, traced and untraced.
    pub records: &'a [SessionRecord],
    /// Provider spans of the timed phase.
    pub provider: &'a [SpanRecord],
    /// Provider metrics recorded during the timed phase.
    pub metrics: &'a MetricsSnapshot,
    /// Traced-server session counters before and after the timed phase.
    pub counters: (ServerCounters, ServerCounters),
    /// Median model derivation time over the set-ups, seconds.
    pub model_build_s: f64,
    /// Median `PreparedTemplate::build` time, milliseconds.
    pub template_build_ms: f64,
}

/// Splits one tracer's spans from index `from` on into the benchmark's
/// own and the provider's, keeping each side's parent links valid.
/// Spans before `from` (the warm-up) are dropped; no later span has one
/// of them as parent, since each session runs on threads of its own.
#[must_use]
pub fn split_spans(spans: &[SpanRecord], from: usize) -> (Vec<SpanRecord>, Vec<SpanRecord>) {
    let mut index = vec![usize::MAX; spans.len()];
    let (mut bench, mut provider) = (Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate().skip(from) {
        let side = if s.cat == CAT_BENCH { &mut bench } else { &mut provider };
        index[i] = side.len();
        let mut s = s.clone();
        s.parent = s.parent.map(|p| index[p]).filter(|&p| p != usize::MAX);
        side.push(s);
    }
    (bench, provider)
}

/// Stamps every provider span with the stream of the benchmark session
/// it served. Each server session runs on a thread of its own, so a
/// thread's spans belong to the client session whose window holds them;
/// with two sessions in flight the later-started window wins.
pub fn key_by_session(bench: &[SpanRecord], provider: &mut [SpanRecord]) {
    let sessions: Vec<(u64, u64, u64)> = bench
        .iter()
        .filter(|s| s.name == "session")
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns, s.arg_u64("stream")))
        .collect();
    let mut windows: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    for s in provider.iter() {
        let w = windows.entry(s.tid).or_insert((u64::MAX, 0));
        w.0 = w.0.min(s.start_ns);
        w.1 = w.1.max(s.start_ns + s.dur_ns);
    }
    for s in provider.iter_mut() {
        let (lo, hi) = windows[&s.tid];
        let stream = sessions
            .iter()
            .filter(|(start, end, _)| *start <= lo && hi <= *end)
            .max_by_key(|(start, _, _)| *start)
            .map_or(0, |(_, _, stream)| *stream);
        s.args.push(("stream".into(), ArgValue::U64(stream)));
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counters.get(name).copied().unwrap_or(0)
}

fn hist(m: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    m.histograms
        .get(name)
        .map_or(0.0, |h: &Histogram| if h.count == 0 { 0.0 } else { hist_quantile(h, q) })
}

/// `after − before`, for counters and histograms (gauges are taken from
/// `after`): the timed phase's share of a cumulative registry.
#[must_use]
pub fn snapshot_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    for (k, v) in &mut d.counters {
        *v -= before.counters.get(k).copied().unwrap_or(0).min(*v);
    }
    for (k, h) in &mut d.histograms {
        if let Some(b) = before.histograms.get(k).filter(|b| b.bounds == h.bounds) {
            for (c, bc) in h.counts.iter_mut().zip(&b.counts) {
                *c -= (*bc).min(*c);
            }
            h.count -= b.count.min(h.count);
            h.sum -= b.sum;
        }
    }
    d
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
#[must_use]
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)] // one flat list; counts < 2^53
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let traced: Vec<&SessionRecord> = run.records.iter().filter(|r| r.traced && r.ok()).collect();
    let plain: Vec<&SessionRecord> = run.records.iter().filter(|r| !r.traced && r.ok()).collect();
    let sessions = traced.len().max(1) as f64;
    let images = traced.iter().map(|r| r.images.len()).sum::<usize>().max(1) as f64;
    let passes = (traced.len() * run.workload.passes_per_session()).max(1) as f64;
    let of = |f: &dyn Fn(&SessionRecord) -> f64| traced.iter().map(|r| f(r)).collect::<Vec<_>>();

    let report = CostReport::from_spans(&[(PROVIDER, run.provider)]);
    let pid = u64::from(PROVIDER);
    let online = report.online_total(pid);
    let offline = report.offline_total(pid);
    let mut stage_cost = vec![PartyCost::default(); STAGES.len()];
    let mut op_cost = vec![PartyCost::default(); OPS.len()];
    let mut layer_ms = vec![0.0; LAYERS.len()];
    for row in &report.rows {
        let cost = row.online.get(&pid).copied().unwrap_or_default();
        for (i, (_, prefix)) in OPS.iter().enumerate() {
            if row.name.strip_prefix(prefix).is_some_and(|n| n.parse::<u32>().is_ok()) {
                add(&mut op_cost[i], cost);
            }
        }
        match LAYERS.iter().position(|l| *l == row.name) {
            Some(i) => layer_ms[i] += cost.ms,
            None if !row.online.is_empty() => {
                eprintln!("pnnbench: layer row {:?} is not in LAYERS; not reported", row.name);
            }
            None => {}
        }
        for stage in &row.stages {
            if let Some(i) = STAGES.iter().position(|s| *s == stage.name) {
                add(&mut stage_cost[i], stage.online.get(&pid).copied().unwrap_or_default());
            }
        }
    }

    let (c0, c1) = run.counters;
    let mut out = vec![
        Metric::new("nn.model_build_s", run.model_build_s, "s"),
        Metric::new("prepared.template_build_ms", run.template_build_ms, "ms"),
        Metric::new(
            "server.admission_ms.p50",
            hist(run.metrics, "server.slo.admission_ms", 0.5),
            "ms",
        ),
        Metric::new(
            "server.queue_wait_ms.p95",
            hist(run.metrics, "server.queue_wait_ms", 0.95),
            "ms",
        ),
        Metric::new("server.sessions.completed", (c1.completed - c0.completed) as f64, "count"),
        Metric::new("server.sessions.shed", (c1.shed - c0.shed) as f64, "count"),
        Metric::new("server.sessions.faulted", (c1.faulted - c0.faulted) as f64, "count"),
        Metric::new("server.sessions.reaped", (c1.reaped - c0.reaped) as f64, "count"),
        Metric::new("client.connect_ms.p50", median(&of(&|r| r.connect_ms)), "ms"),
        Metric::new("client.setup_ms.p50", median(&of(&|r| r.run_ms - r.online_ms)), "ms"),
        Metric::new("client.online_ms.p50", median(&of(&|r| r.online_ms)), "ms"),
        Metric::new(
            "session.retransmits",
            traced.iter().map(|r| r.retransmits).sum::<u64>() as f64 / sessions,
            "1/session",
        ),
        Metric::new(
            "session.naks_sent",
            traced.iter().map(|r| r.naks_sent).sum::<u64>() as f64 / sessions,
            "1/session",
        ),
        Metric::new("transport.rounds_per_pass", online.rounds as f64 / passes, "rounds"),
        Metric::new("transport.online_bytes_per_image", online.bytes as f64 / images, "B"),
        Metric::new("offline.ms", offline.ms / sessions, "ms"),
        Metric::new("offline.bytes", offline.bytes as f64 / sessions, "B"),
    ];
    let (hits, misses) =
        (counter(run.metrics, "dealer.hits"), counter(run.metrics, "dealer.misses"));
    let hit_ratio = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    out.push(Metric::new("dealer.hit_ratio", hit_ratio, "ratio"));
    out.push(Metric::new(
        "dealer.starved_ms",
        counter(run.metrics, "dealer.starved_ms") as f64 / sessions,
        "ms",
    ));
    let mut rows = |family: &str, name: &str, c: PartyCost| {
        out.push(Metric::new(format!("{family}.{name}.ms"), c.ms / images, "ms"));
        out.push(Metric::new(format!("{family}.{name}.bytes"), c.bytes as f64 / images, "B"));
        out.push(Metric::new(
            format!("{family}.{name}.rounds"),
            c.rounds as f64 / passes,
            "rounds",
        ));
    };
    for (name, c) in STAGES.iter().zip(&stage_cost) {
        rows("stage", name, *c);
    }
    for ((name, _), c) in OPS.iter().zip(&op_cost) {
        rows("op", name, *c);
    }
    for (name, ms) in LAYERS.iter().zip(&layer_ms) {
        out.push(Metric::new(format!("layer.{name}.ms"), ms / images, "ms"));
    }

    let lat = |rs: &[&SessionRecord]| median(&rs.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    let overhead = if plain.is_empty() { 0.0 } else { (lat(&traced) / lat(&plain) - 1.0) * 100.0 };
    out.push(Metric::new("trace.overhead_pct", overhead, "%"));

    let (measured, projected) = match run.workload.wan {
        Some(profile) => {
            let net: NetworkModel = profile.network_model();
            let projected: Vec<f64> = traced
                .iter()
                .map(|r| net.transfer_seconds(r.link_bytes / 2, r.link_msgs / 2) * 1e3)
                .collect();
            (lat(&traced), median(&projected))
        }
        None => (0.0, 0.0),
    };
    out.push(Metric::new("wan.session_ms.measured", measured, "ms"));
    out.push(Metric::new("wan.link_ms.projected", projected, "ms"));
    out
}

fn add(into: &mut PartyCost, c: PartyCost) {
    into.bytes += c.bytes;
    into.rounds += c.rounds;
    into.ms += c.ms;
}

/// Where a traced run writes its trace, metrics and metadata.
#[must_use]
pub fn out_dir(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("{workload}-seed{seed}"))
}

/// Writes `trace.json` (Chrome trace: the benchmark's spans as party 0,
/// the provider's as party 1), the provider's `metrics.json` and
/// `meta.json` into `dir`, in a form `cargo xtask report DIR` renders.
///
/// # Errors
///
/// The directory or a file could not be written.
pub fn export(
    dir: &Path,
    bench: &[SpanRecord],
    provider: &[SpanRecord],
    metrics: &MetricsSnapshot,
    meta: &Json,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let trace = chrome_trace(&[(0, bench), (PROVIDER, provider)]);
    std::fs::write(dir.join("trace.json"), trace.to_string_compact())?;
    std::fs::write(dir.join("metrics.json"), metrics.to_json().to_string_pretty())?;
    std::fs::write(dir.join("meta.json"), meta.to_string_pretty())
}
