//! A WAN link shaper for the client side of one connection.
//!
//! [`ShapedLink`] wraps any [`Transport`] and makes it behave like a
//! full-duplex link of fixed bandwidth and one-way delay: every message,
//! in either direction, is first serialized at the bandwidth (messages
//! queue behind each other, as on a wire) and then delivered one one-way
//! delay later. One pump thread owns all I/O on the wrapped transport, so
//! a receive that is waiting never blocks a send that falls due.
//!
//! The shaper lives in the benchmark, not in the transport crate: it is a
//! measuring instrument for the `lenet5-wan` workload.

use aq2pnn::substrate::transport::{Bytes, NetworkModel, Transport, TransportError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the pump waits on the wrapped transport before it looks at its
/// delay queues again; bounds how late a due message can leave.
const PUMP_POLL: Duration = Duration::from_millis(1);

/// Bandwidth and one-way delay of a shaped link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanProfile {
    /// Link bandwidth in bits per second, each direction.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub one_way: Duration,
}

impl WanProfile {
    /// The ROADMAP WAN profile: 200 Mbps, 40 ms round trip.
    pub const ROADMAP: WanProfile =
        WanProfile { bandwidth_bps: 200e6, one_way: Duration::from_millis(20) };

    /// Round-trip propagation delay.
    #[must_use]
    pub fn rtt(&self) -> Duration {
        self.one_way * 2
    }

    /// Time to put `bytes` on the wire at the profile's bandwidth.
    #[must_use]
    pub fn serialization(&self, bytes: usize) -> Duration {
        #[allow(clippy::cast_precision_loss)] // message sizes are far below 2^52
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// The repository's analytic model of the same link, with the
    /// Ethernet/IP/TCP framing the throughput projection assumes.
    #[must_use]
    pub fn network_model(&self) -> NetworkModel {
        NetworkModel {
            bandwidth_bps: self.bandwidth_bps,
            latency_s: self.one_way.as_secs_f64(),
            per_message_overhead_bytes: 66,
        }
    }
}

/// Messages and bytes that crossed a shaped link, both directions.
#[derive(Debug, Default)]
pub struct LinkCounters {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl LinkCounters {
    fn count(&self, bytes: usize) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// `(messages, bytes)` so far.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (self.msgs.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }
}

/// A [`Transport`] that delays and rate-limits another one. See the
/// [module docs](self).
pub struct ShapedLink {
    inner: Arc<dyn Transport>,
    profile: WanProfile,
    outbound: Mutex<Option<Sender<(Instant, Bytes)>>>,
    inbound: Mutex<Receiver<Bytes>>,
    stop: Arc<AtomicBool>,
    pump: Mutex<Option<JoinHandle<()>>>,
    counters: Arc<LinkCounters>,
}

impl ShapedLink {
    /// Wraps an established `inner` link.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, profile: WanProfile) -> ShapedLink {
        let (out_tx, out_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(LinkCounters::default());
        let pump = {
            let (inner, stop, counters) =
                (Arc::clone(&inner), Arc::clone(&stop), Arc::clone(&counters));
            std::thread::Builder::new()
                .name("pnnbench-shaper".into())
                .spawn(move || pump(&*inner, profile, &out_rx, &ready_tx, &stop, &counters))
                .expect("spawning the shaper pump thread")
        };
        ShapedLink {
            inner,
            profile,
            outbound: Mutex::new(Some(out_tx)),
            inbound: Mutex::new(ready_rx),
            stop,
            pump: Mutex::new(Some(pump)),
            counters,
        }
    }

    /// Traffic counters shared with the pump.
    #[must_use]
    pub fn counters(&self) -> Arc<LinkCounters> {
        Arc::clone(&self.counters)
    }
}

/// The pump: drains the outbound queue onto the wire when each message
/// falls due, stamps inbound messages on arrival and hands them to the
/// reader when they fall due. Exits on `stop`, when the [`ShapedLink`] is
/// dropped, or once the wrapped link failed and every message already in
/// flight was delivered; dropping `ready` then reports the link down.
fn pump(
    inner: &dyn Transport,
    profile: WanProfile,
    outbound: &Receiver<(Instant, Bytes)>,
    ready: &Sender<Bytes>,
    stop: &AtomicBool,
    counters: &LinkCounters,
) {
    let mut out_q: VecDeque<(Instant, Bytes)> = VecDeque::new();
    let mut in_q: VecDeque<(Instant, Bytes)> = VecDeque::new();
    let (mut out_free, mut in_free) = (Instant::now(), Instant::now());
    let mut inner_up = true;
    while !stop.load(Ordering::SeqCst) {
        loop {
            match outbound.try_recv() {
                Ok((queued_at, bytes)) => {
                    out_free = out_free.max(queued_at) + profile.serialization(bytes.len());
                    out_q.push_back((out_free + profile.one_way, bytes));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        let now = Instant::now();
        while out_q.front().is_some_and(|(due, _)| *due <= now) {
            let (_, bytes) = out_q.pop_front().expect("front checked");
            if inner_up && inner.send(bytes).is_err() {
                inner_up = false;
            }
        }
        while in_q.front().is_some_and(|(due, _)| *due <= now) {
            let (_, bytes) = in_q.pop_front().expect("front checked");
            if ready.send(bytes).is_err() {
                return;
            }
        }
        if !inner_up && in_q.is_empty() {
            return;
        }
        let next_due = out_q.front().into_iter().chain(in_q.front()).map(|(due, _)| *due).min();
        let wait =
            next_due.map_or(PUMP_POLL, |due| due.saturating_duration_since(now)).min(PUMP_POLL);
        if !inner_up {
            std::thread::sleep(wait);
            continue;
        }
        match inner.recv(Some(wait)) {
            Ok(bytes) => {
                counters.count(bytes.len());
                in_free = in_free.max(Instant::now()) + profile.serialization(bytes.len());
                in_q.push_back((in_free + profile.one_way, bytes));
            }
            Err(TransportError::Timeout) => {}
            Err(_) => inner_up = false,
        }
    }
}

impl Transport for ShapedLink {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        let len = bytes.len();
        let outbound = self.outbound.lock().expect("shaper outbound lock poisoned");
        let tx = outbound.as_ref().ok_or(TransportError::Disconnected)?;
        tx.send((Instant::now(), bytes)).map_err(|_| TransportError::Disconnected)?;
        self.counters.count(len);
        Ok(())
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        let inbound = self.inbound.lock().expect("shaper inbound lock poisoned");
        match deadline {
            Some(d) => inbound.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout,
                RecvTimeoutError::Disconnected => TransportError::Disconnected,
            }),
            None => inbound.recv().map_err(|_| TransportError::Disconnected),
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.inner.shutdown();
    }

    fn descriptor(&self) -> String {
        format!(
            "shaped({:.0} Mbps, {} ms rtt; {})",
            self.profile.bandwidth_bps / 1e6,
            self.profile.rtt().as_millis(),
            self.inner.descriptor()
        )
    }
}

impl Drop for ShapedLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(mut outbound) = self.outbound.lock() {
            outbound.take();
        }
        let handle = self.pump.lock().ok().and_then(|mut h| h.take());
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn::substrate::transport::mem_pair;

    /// Scheduling slack allowed on top of the profile on a loaded box.
    const SLACK: Duration = Duration::from_millis(10);

    fn shaped_pair(profile: WanProfile) -> (ShapedLink, Arc<dyn Transport>) {
        let (a, b) = mem_pair();
        (ShapedLink::new(Arc::new(a), profile), Arc::new(b))
    }

    fn assert_within(what: &str, measured: Duration, expected: Duration) {
        assert!(
            measured >= expected && measured <= expected + SLACK,
            "{what}: measured {measured:?}, profile says {expected:?} (+{SLACK:?} slack)"
        );
    }

    #[test]
    fn ping_pong_rtt_matches_profile() {
        let profile = WanProfile::ROADMAP;
        let (shaped, peer) = shaped_pair(profile);
        let echo = std::thread::spawn(move || {
            for _ in 0..5 {
                let msg = peer.recv(Some(Duration::from_secs(5))).expect("echo recv");
                peer.send(msg).expect("echo send");
            }
        });
        let mut rtts = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            shaped.send(Bytes::from(vec![7u8; 64])).expect("ping");
            shaped.recv(Some(Duration::from_secs(5))).expect("pong");
            rtts.push(t0.elapsed());
        }
        echo.join().expect("echo thread");
        rtts.sort();
        let expected = profile.rtt() + profile.serialization(64) * 2;
        assert_within("median ping-pong RTT", rtts[2], expected);
        assert_eq!(shaped.counters().totals(), (10, 640));
    }

    #[test]
    fn bulk_transfer_time_matches_profile_both_ways() {
        const CHUNK: usize = 64 << 10;
        const CHUNKS: usize = 32;
        let profile = WanProfile::ROADMAP;
        let expected = profile.one_way + profile.serialization(CHUNK * CHUNKS);

        // Outbound: the shaped side sends, the raw peer times arrivals.
        let (shaped, peer) = shaped_pair(profile);
        let t0 = Instant::now();
        for _ in 0..CHUNKS {
            shaped.send(Bytes::from(vec![1u8; CHUNK])).expect("bulk send");
        }
        for _ in 0..CHUNKS {
            peer.recv(Some(Duration::from_secs(5))).expect("bulk recv");
        }
        assert_within("outbound bulk transfer", t0.elapsed(), expected);

        // Inbound: the raw peer sends, the shaped side times deliveries.
        let t0 = Instant::now();
        for _ in 0..CHUNKS {
            peer.send(Bytes::from(vec![2u8; CHUNK])).expect("bulk send");
        }
        for _ in 0..CHUNKS {
            shaped.recv(Some(Duration::from_secs(5))).expect("bulk recv");
        }
        assert_within("inbound bulk transfer", t0.elapsed(), expected);
    }

    #[test]
    fn peer_shutdown_surfaces_as_disconnect() {
        let (shaped, peer) = shaped_pair(WanProfile::ROADMAP);
        peer.shutdown();
        assert_eq!(shaped.recv(Some(Duration::from_secs(2))), Err(TransportError::Disconnected));
    }
}
