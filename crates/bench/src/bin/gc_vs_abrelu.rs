//! **Sec. 2.2 / 6.1 claim** — garbled-circuit ReLU vs ABReLU.
//!
//! The paper motivates ABReLU by GC's bulk ("ReLU requires 67.9 K wires").
//! Here both sides are *real*: the GC cost comes from actually garbling an
//! ℓ-bit ReLU-over-shares circuit (free-XOR, point-and-permute), and the
//! ABReLU cost is measured live from a two-party execution.

use aq2pnn::abrelu::abrelu;
use aq2pnn::sim::run_pair;
use aq2pnn::ProtocolConfig;
use aq2pnn_bench::header;
use aq2pnn_gc::circuit::relu_on_shares;
use aq2pnn_gc::cost::GcCost;
use aq2pnn_ring::RingTensor;
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::duplex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn abrelu_bytes_per_elem(bits: u32, n: usize) -> f64 {
    let cfg = ProtocolConfig::paper(bits);
    let ring = cfg.q1();
    let mut rng = StdRng::seed_from_u64(1);
    let vals: Vec<i64> = (0..n as i64).map(|i| i * 7 - 100).collect();
    let t = RingTensor::from_signed(ring, vec![n], &vals).expect("fits");
    let (s0, s1) = AShare::share(&t, &mut rng);
    let (bytes, _) = run_pair(duplex(), &cfg, move |ctx| {
        let mine = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        let _ = abrelu(ctx, &mine).expect("abrelu runs");
        ctx.ep.stats().total_bytes()
    });
    bytes as f64 / n as f64
}

fn main() {
    header("GC-ReLU vs ABReLU — per-activation cost");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>14} {:>16} {:>8}",
        "bits", "GC wires", "GC ANDs", "GC XORs", "GC bytes/elem", "ABReLU bytes/elem", "ratio"
    );
    for bits in [8u32, 16, 24, 32] {
        let circ = relu_on_shares(bits);
        let gc = GcCost::of(&circ);
        let ab = abrelu_bytes_per_elem(bits, 256);
        println!(
            "{bits:<6} {:>9} {:>9} {:>9} {:>14} {:>16.1} {:>8.1}",
            gc.wires,
            gc.and_gates,
            gc.xor_gates,
            gc.total_bytes(),
            ab,
            gc.total_bytes() as f64 / ab
        );
    }
    println!(
        "\npaper context: HAAC-style GC ReLU needs tens of thousands of \
         wires and kilobytes per activation; ABReLU stays at tens of bytes \
         — the 'lightweight rounds over bulky circuits' trade the paper \
         exploits (Sec. 2.2)."
    );
}
