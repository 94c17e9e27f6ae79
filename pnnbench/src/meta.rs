//! Run metadata recorded beside every result.
//!
//! The startup kernel calibration (`KernelDispatch::active`) can pick a
//! different u16 `axpy2` kernel in two processes on the same host — the
//! margins are a few percent — so each run records which one it got.
//! A bimodal set of runs can then be attributed to that choice.

use aq2pnn::substrate::obs::json::Json;
use aq2pnn::substrate::ring::{simd, IsaLevel};
use aq2pnn::substrate::sharing::kernels::KernelDispatch;
use std::path::Path;

/// The `IsaLevel` whose u16 `axpy2` kernel the process-wide dispatch
/// table holds. Unsupported levels select the scalar kernel, so scalar is
/// matched first.
#[must_use]
pub fn active_axpy2_u16() -> &'static str {
    let active = KernelDispatch::active().axpy2_u16 as usize;
    [IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512, IsaLevel::Neon]
        .into_iter()
        .find(|&level| simd::axpy2_u16_for(level) as usize == active)
        .map_or("custom", IsaLevel::name)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `unknown` outside a git work tree (e.g. an exported checkout).
#[must_use]
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
                    .filter(|rev| !rev.is_empty() && !rev.starts_with('#'))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The metadata document for one run.
#[must_use]
pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(u64::from(trace))),
        ("git_rev", Json::from(git_rev(Path::new(".")))),
        ("nproc", Json::from(nproc as u64)),
        ("isa", Json::from(IsaLevel::active().name())),
        ("axpy2_u16_kernel", Json::from(active_axpy2_u16())),
    ])
}
