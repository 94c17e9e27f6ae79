//! Property-based tests on the protocol building blocks: randomized
//! inputs through real two-party executions.

use aq2pnn::abrelu::abrelu;
use aq2pnn::gemm::secure_matmul;
use aq2pnn::sim::run_pair;
use aq2pnn::ProtocolConfig;
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::beaver::ring_matmul;
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::duplex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn share(ring: Ring, shape: Vec<usize>, vals: &[i64], seed: u64) -> (AShare, AShare) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = RingTensor::from_signed(ring, shape, vals).expect("valid shape");
    AShare::share(&t, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AS-GEMM ≡ plaintext ring matmul for arbitrary shapes and values.
    #[test]
    fn secure_matmul_equals_plaintext(
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
        seed in 0u64..1000,
        bits in 8u32..24,
    ) {
        let cfg = ProtocolConfig::paper(bits.clamp(8, 24));
        let ring = cfg.q1();
        let mut rng = StdRng::seed_from_u64(seed);
        let a_vals: Vec<i64> =
            (0..m * k).map(|_| rng.gen_range(ring.min_signed()..=ring.max_signed())).collect();
        let b_vals: Vec<i64> =
            (0..k * n).map(|_| rng.gen_range(ring.min_signed()..=ring.max_signed())).collect();
        let (a0, a1) = share(ring, vec![m, k], &a_vals, seed + 1);
        let (b0, b1) = share(ring, vec![k, n], &b_vals, seed + 2);
        let (o0, o1) = run_pair(duplex(), &cfg, move |ctx| {
            let (x, w) = match ctx.id {
                PartyId::User => (a0.clone(), b0.clone()),
                PartyId::ModelProvider => (a1.clone(), b1.clone()),
            };
            secure_matmul(ctx, &x, &w).expect("gemm runs")
        });
        let rec = AShare::recover(&o0, &o1).expect("shapes agree");
        let pa = RingTensor::from_signed(ring, vec![m, k], &a_vals).expect("shape");
        let pb = RingTensor::from_signed(ring, vec![k, n], &b_vals).expect("shape");
        prop_assert_eq!(rec, ring_matmul(&pa, &pb).expect("shape"));
    }

    /// ABReLU ≡ plaintext ReLU for every representable value, at random
    /// ring widths.
    #[test]
    fn abrelu_equals_relu(
        seed in 0u64..1000,
        bits in 8u32..20,
        len in 1usize..40,
    ) {
        let cfg = ProtocolConfig::paper(bits);
        let ring = cfg.q1();
        let mut rng = StdRng::seed_from_u64(seed);
        let vals: Vec<i64> =
            (0..len).map(|_| rng.gen_range(ring.min_signed()..=ring.max_signed())).collect();
        let (s0, s1) = share(ring, vec![len], &vals, seed + 7);
        let (o0, o1) = run_pair(duplex(), &cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            abrelu(ctx, &mine).expect("abrelu runs")
        });
        let rec = AShare::recover(&o0, &o1).expect("shapes agree");
        let expect: Vec<i64> = vals.iter().map(|&v| v.max(0)).collect();
        prop_assert_eq!(rec.to_signed(), expect);
    }

    /// The secure comparison never leaks through incorrect results at the
    /// boundary values of the ring.
    #[test]
    fn abrelu_ring_boundaries(bits in 8u32..16) {
        let cfg = ProtocolConfig::paper(bits);
        let ring = cfg.q1();
        let vals = vec![
            0i64,
            1,
            -1,
            ring.max_signed(),
            ring.min_signed(),
            ring.max_signed() - 1,
            ring.min_signed() + 1,
        ];
        let (s0, s1) = share(ring, vec![vals.len()], &vals, u64::from(bits));
        let expect: Vec<i64> = vals.iter().map(|&v| v.max(0)).collect();
        let (o0, o1) = run_pair(duplex(), &cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            abrelu(ctx, &mine).expect("abrelu runs")
        });
        let rec = AShare::recover(&o0, &o1).expect("shapes agree");
        prop_assert_eq!(rec.to_signed(), expect);
    }
}
