//! Reproduction of paper Fig. 3: the 2PC-MMAC worked example.
//!
//! A `(BLOCK_IN, BLOCK_OUT) = (4, 4)` matrix multiply-accumulate is
//! evaluated in the plaintext domain and in the ciphertext domain
//! (AS-GEMM over additive shares with a Beaver triple), then the recovered
//! ciphertext result is checked against the plaintext one — exactly the
//! ①→②→③ flow in the figure.
//!
//! ```sh
//! cargo run --release --example mmac_walkthrough
//! ```

use aq2pnn::gemm::secure_matmul;
use aq2pnn::sim::run_pair;
use aq2pnn::ProtocolConfig;
use aq2pnn_ring::RingTensor;
use aq2pnn_sharing::beaver::ring_matmul;
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::duplex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ProtocolConfig::paper(16);
    let ring = cfg.q1();
    println!("ring: {ring} (paper Definition 1)\n");

    // A 1x4 input broadcast against a 4x4 weight block, like Fig. 3.
    let in_vals: Vec<i64> = vec![2, -1, 3, 4];
    let w_vals: Vec<i64> = vec![
        1, 2, -1, 0, //
        0, 1, 2, -2, //
        3, -1, 1, 1, //
        2, 0, 0, 1,
    ];
    let input = RingTensor::from_signed(ring, vec![1, 4], &in_vals)?;
    let weight = RingTensor::from_signed(ring, vec![4, 4], &w_vals)?;

    // --- Plaintext domain (green ①/② in the figure). ---
    let plain = ring_matmul(&input, &weight)?;
    println!("plaintext IN ⊗ W  = {:?}", plain.to_signed());

    // --- Ciphertext domain (orange ①/②). ---
    let mut rng = StdRng::seed_from_u64(1);
    let (in0, in1) = AShare::share(&input, &mut rng);
    let (w0, w1) = AShare::share(&weight, &mut rng);
    println!("party 0 IN share  = {:?}", in0.as_tensor().as_slice());
    println!("party 1 IN share  = {:?}", in1.as_tensor().as_slice());

    let (o0, o1) = run_pair(duplex(), &cfg, move |ctx| {
        let (x, w) = match ctx.id {
            PartyId::User => (in0.clone(), w0.clone()),
            PartyId::ModelProvider => (in1.clone(), w1.clone()),
        };
        secure_matmul(ctx, &x, &w).expect("gemm runs")
    });
    println!("party 0 OUT share = {:?}", o0.as_tensor().as_slice());
    println!("party 1 OUT share = {:?}", o1.as_tensor().as_slice());

    // --- Recovery check (orange ③): rec(⟦O⟧) = (O_i + O_j) mod Q. ---
    let recovered = AShare::recover(&o0, &o1)?;
    println!("rec(⟦OUT⟧)        = {:?}", recovered.to_signed());
    assert_eq!(recovered, plain, "2PC-MMAC must match the plaintext MMAC");
    println!("\n✓ ciphertext-domain MMAC matches the plaintext domain (Fig. 3 check)");
    Ok(())
}
