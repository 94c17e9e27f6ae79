//! Two-thread simulation harness: runs both parties of a protocol over any
//! endpoint pair — an in-process [`aq2pnn_transport::duplex`] link, a TCP
//! loopback session, or a fault-injected link. The same protocol code runs
//! unchanged over each.

use crate::dealer::DealerConfig;
use crate::engine::BatchInput;
use crate::oracle::IdealOracle;
use crate::prepared::PreparedModel;
use crate::{PartyContext, ProtocolConfig, ProtocolError};
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_obs::{MetricsRegistry, Tracer};
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{ChannelStats, Endpoint};
use std::sync::Arc;
use std::time::Duration;

/// Observability handles for one party of a traced run. `Tracer` and
/// `MetricsRegistry` are cheap shared handles: clone them into the run and
/// keep the originals to snapshot spans/metrics afterwards.
#[derive(Clone, Default)]
pub struct PartyObs {
    /// Span recorder (disabled by default).
    pub tracer: Tracer,
    /// Metric store (disabled by default).
    pub metrics: MetricsRegistry,
}

impl PartyObs {
    /// Enabled tracer + metrics pair.
    #[must_use]
    pub fn enabled() -> Self {
        PartyObs { tracer: Tracer::new(), metrics: MetricsRegistry::new() }
    }
}

/// Runs `f` as both parties over `(e0, e1)` — party 0 (the user) on the
/// calling thread, party 1 (the model provider) on a scoped thread — and
/// returns `(party 0 result, party 1 result)`.
///
/// Each party's [`PartyContext`], and with it its endpoint, is dropped as
/// soon as that party's closure returns: a peer still blocked in `recv`
/// then fails with `TransportError::Disconnected` instead of hanging.
///
/// An [`IdealOracle`] is always provisioned so `Exact` share-conversion
/// configs work transparently.
///
/// # Panics
///
/// Panics if either party's closure panics.
pub fn run_pair<T, F>((e0, e1): (Endpoint, Endpoint), cfg: &ProtocolConfig, f: F) -> (T, T)
where
    T: Send,
    F: Fn(&mut PartyContext) -> T + Sync,
{
    let oracle = Arc::new(IdealOracle::new(cfg.setup_seed ^ 0x0eac1e));
    let party = |id: PartyId, ep: Endpoint| {
        let mut ctx = PartyContext::new(id, ep, cfg.clone(), Some(Arc::clone(&oracle)));
        f(&mut ctx)
    };
    std::thread::scope(|s| {
        let provider = s.spawn(|| party(PartyId::ModelProvider, e1));
        let user = party(PartyId::User, e0);
        (user, provider.join().expect("party 1 panicked"))
    })
}

/// How [`run_two_party`] drives its session: images per online pass, an
/// optional background dealer, and per-party observability.
#[derive(Clone, Default)]
pub struct RunPlan {
    /// Images per online pass ([`PreparedModel::run_batch`]); `0` counts
    /// as `1`.
    pub batch: usize,
    /// When set, both parties move their triple lanes into a background
    /// [`crate::dealer::DealerPool`], warmed before the first pass.
    pub dealer: Option<DealerConfig>,
    /// Party 0's tracer and metrics. With [`PartyObs::enabled`] handles
    /// the protocol opens a span per layer and per stage and records
    /// session/OT metrics; snapshot them after the run.
    pub user_obs: PartyObs,
    /// Party 1's tracer and metrics.
    pub provider_obs: PartyObs,
}

/// Result of a two-party inference session.
#[derive(Debug, Clone)]
pub struct TwoPartyRun {
    /// Recovered logits (revealed to both parties), one vector per image,
    /// in input order.
    pub logits: Vec<Vec<i64>>,
    /// Communication statistics of party 0 (the user).
    pub user_stats: ChannelStats,
    /// Communication statistics of party 1 (the model provider).
    pub provider_stats: ChannelStats,
}

/// Runs one secure inference session of `model` on `images` between two
/// parties over `(e0, e1)`: both parties prepare `model` **once**, spawn
/// the dealer `plan` asks for, and classify `images` in
/// `plan.batch`-sized passes of [`PreparedModel::run_batch`]. A single
/// image is one pass at `B = 1`.
///
/// Over endpoints on a [`aq2pnn_transport::Session`] wrapping a
/// [`aq2pnn_transport::FaultyTransport`] the logits must come out
/// bit-identical to the in-process run — the fault soaks' contract.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from either party (party 0's first);
/// [`ProtocolError::Desync`] if the parties recover different logits.
///
/// # Panics
///
/// Panics if either party panics.
pub fn run_two_party(
    endpoints: (Endpoint, Endpoint),
    model: &QuantModel,
    cfg: &ProtocolConfig,
    images: &[&[f32]],
    plan: &RunPlan,
) -> Result<TwoPartyRun, ProtocolError> {
    let batch = plan.batch.max(1);
    let (user, provider) = run_pair(endpoints, cfg, |ctx| {
        let obs = match ctx.id {
            PartyId::User => &plan.user_obs,
            PartyId::ModelProvider => &plan.provider_obs,
        };
        ctx.set_obs(obs.tracer.clone(), obs.metrics.clone());
        let mut prepared = PreparedModel::prepare(ctx, model)?;
        let _pool = plan.dealer.map(|d| {
            let pool = prepared.spawn_dealer(ctx, d);
            let _ = pool.wait_warm(Duration::from_secs(10));
            pool
        });
        let mut logits = Vec::with_capacity(images.len());
        for chunk in images.chunks(batch) {
            let input = match ctx.id {
                PartyId::User => BatchInput::User(chunk),
                PartyId::ModelProvider => BatchInput::Provider { batch: chunk.len() },
            };
            logits.extend(prepared.run_batch(ctx, input)?.logits);
        }
        Ok::<_, ProtocolError>((logits, ctx.ep.stats()))
    });
    let (logits, user_stats) = user?;
    let (provider_logits, provider_stats) = provider?;
    if logits != provider_logits {
        return Err(ProtocolError::Desync("parties recovered different logits".into()));
    }
    Ok(TwoPartyRun { logits, user_stats, provider_stats })
}
