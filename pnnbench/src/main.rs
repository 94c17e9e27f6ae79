//! `pnnbench`: the repository benchmark. Runs one serving workload
//! against the multi-tenant two-party inference server and prints its
//! metrics; see README.md in this directory.
//!
//! ```sh
//! cargo run --release --offline --manifest-path pnnbench/Cargo.toml -- \
//!     --workload lenet5-interactive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced run (`--trace 1`).

mod check;
mod layers;
mod meta;
mod shaper;
mod stats;
mod workload;

use aq2pnn::prepared::PreparedTemplate;
use aq2pnn::substrate::obs::json::Json;
use aq2pnn::substrate::obs::Tracer;
use aq2pnn::substrate::sharing::PartyId;
use aq2pnn::ProtocolConfig;
use check::{SessionRecord, Tally};
use stats::{median, Metric};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{generate_load, ms, run_session, Fixture, SessionCtx, Target, Workload, Q1_BITS};

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Lowest `top1_agree` a correct run can have. A protocol that returns
/// well-shaped garbage agrees with the plaintext top-1 about one time in
/// ten; paper-mode rounding alone costs a few points on the untrained
/// AlexNet, whose logits are close together.
const MIN_TOP1_AGREE: f64 = 0.5;

const USAGE: &str = "usage: pnnbench --workload NAME --seed N --seconds N --trace 0|1\n\
                     workloads: lenet5-sessions, alexnet-batch, lenet5-wan";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pnnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(result) => {
            println!("{}", result.to_string_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pnnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One untimed session with the workload's shape on the dataset's first
/// images.
fn warm_up(wl: &Workload, fixture: &Fixture, target: &Target) -> Result<(), String> {
    let ctx = SessionCtx { workload: wl, fixture };
    let images = (0..wl.images_per_session).map(|i| i % fixture.images.len()).collect();
    let r = run_session(&ctx, target.addr(), &Tracer::disabled(), images, Instant::now());
    r.error.map_or(Ok(()), |e| Err(format!("warm-up session failed: {e}")))
}

/// Derives the model, starts the server and warms it up.
fn set_up(wl: &Workload) -> Result<(Fixture, Target, f64), String> {
    let t = Instant::now();
    let fixture = wl.model.derive()?;
    let model_build_s = t.elapsed().as_secs_f64();
    let target = Target::start(&fixture, false)?;
    warm_up(wl, &fixture, &target)?;
    Ok((fixture, target, model_build_s))
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[allow(clippy::too_many_lines)] // one linear run: set up, load, check, report
fn run(args: &Args, process_start: Instant) -> Result<Json, String> {
    let wl = &args.workload;
    let meta = meta::collect(wl.name, args.seed, args.seconds, args.trace);
    println!("meta {}", meta.to_string_compact());

    // Set-up, several times; the first one counts from process start.
    let (mut setup_s, mut model_build_s) = (Vec::new(), Vec::new());
    let mut stand = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, target, _)) = stand.take() {
            Target::stop(target);
        }
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        let s = set_up(wl)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        model_build_s.push(s.2);
        stand = Some(s);
    }
    let (fixture, plain, _) = stand.expect("SETUP_REPS > 0");

    // The traced run adds a second, recording server; sessions alternate
    // between the two so their latency gap is the tracing overhead.
    let traced = if args.trace {
        let target = Target::start(&fixture, true)?;
        warm_up(wl, &fixture, &target)?;
        Some(target)
    } else {
        None
    };
    let template_build_ms = if args.trace {
        let pcfg = ProtocolConfig::paper(Q1_BITS);
        let mut t = Vec::new();
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            PreparedTemplate::build(PartyId::ModelProvider, &pcfg, &fixture.model)
                .map_err(|e| format!("template build: {e}"))?;
            t.push(ms(start.elapsed()));
        }
        median(&t)
    } else {
        0.0
    };
    let span_base = traced.as_ref().map_or(0, |t| t.obs.tracer.span_count());
    let metrics_base = traced.as_ref().map(|t| t.obs.metrics.snapshot());
    let counters_base = traced.as_ref().map(Target::counters);

    let ctx = SessionCtx { workload: wl, fixture: &fixture };
    let targets: Vec<&Target> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    #[allow(clippy::cast_precision_loss)] // seconds are small
    let (records, wall) = generate_load(&ctx, &targets, args.seed, args.seconds as f64);

    // Stop the servers before reading what they recorded.
    let spans = traced.as_ref().map(|t| t.obs.tracer.snapshot());
    let counters_end = traced.as_ref().map(Target::counters);
    Target::stop(plain);
    let metrics_end = traced.as_ref().map(|t| t.obs.metrics.snapshot());
    if let Some(t) = traced {
        Target::stop(t);
    }

    // Output check: plaintext top-1 of every image a session answered.
    let mut reference: HashMap<usize, usize> = HashMap::new();
    let mut reference_err = None;
    let tally = Tally::of(&records, |i| {
        *reference.entry(i).or_insert_with(|| match fixture.model.forward(&fixture.images[i]) {
            Ok(logits) => check::argmax(&logits),
            Err(e) => {
                reference_err = Some(e.to_string());
                usize::MAX
            }
        })
    });
    if let Some(e) = reference_err {
        return Err(format!("plaintext reference failed: {e}"));
    }
    let ok: Vec<&SessionRecord> = records.iter().filter(|r| r.ok()).collect();
    for r in records.iter().filter(|r| !r.ok()) {
        eprintln!("pnnbench: failed session: {}", r.error.as_deref().unwrap_or(""));
    }
    let correct = tally.top1_agree() >= MIN_TOP1_AGREE && tally.images > 0;

    let metrics: Vec<Metric> = if args.trace {
        let (bench, mut provider) = layers::split_spans(&spans.unwrap_or_default(), span_base);
        layers::key_by_session(&bench, &mut provider);
        let delta = layers::snapshot_delta(
            &metrics_base.unwrap_or_default(),
            &metrics_end.unwrap_or_default(),
        );
        let counters = (counters_base.unwrap_or_default(), counters_end.unwrap_or_default());
        let per_layer = layers::per_layer(&layers::TracedRun {
            workload: wl,
            records: &records,
            provider: &provider,
            metrics: &delta,
            counters,
            model_build_s: median(&model_build_s),
            template_build_ms,
        });
        let dir = layers::out_dir(wl.name, args.seed);
        layers::export(&dir, &bench, &provider, &delta, &meta)
            .map_err(|e| format!("writing {}: {e}", dir.display()))?;
        eprintln!("pnnbench: trace written to {}", dir.display());
        per_layer
    } else {
        let latency: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
        let bytes: u64 = ok.iter().map(|r| r.payload_bytes).sum();
        #[allow(clippy::cast_precision_loss)] // counts < 2^53
        let images_per_s = tally.images as f64 / wall.as_secs_f64();
        println!(
            "# {} seed {}: sessions attempted {} succeeded {} failed {}, images {}, \
             latency samples {}, wall {:.3} s, setups {:?} s",
            wl.name,
            args.seed,
            tally.attempted,
            tally.attempted - tally.failed,
            tally.failed,
            tally.images,
            latency.len(),
            wall.as_secs_f64(),
            setup_s,
        );
        #[allow(clippy::cast_precision_loss)]
        let bytes_per_image = bytes as f64 / tally.images.max(1) as f64;
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("images_per_s", images_per_s, "1/s"),
            Metric::new("session_p50_ms", median(&latency), "ms"),
            Metric::new("bytes_per_image", bytes_per_image, "B"),
            Metric::new("top1_agree", tally.top1_agree(), "ratio"),
            Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    for m in &metrics {
        println!("# {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        let v = Json::obj(vec![
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]);
                        (m.name, v)
                    })
                    .collect(),
            ),
        ),
    ]))
}
