//! Criterion micro-benchmarks of the protocol building blocks.
//!
//! Complements the table harnesses in `src/bin/` (which regenerate the
//! paper's tables) with wall-clock timings of the primitives on this
//! machine: ring ops, wire packing, OT batches, AS-GEMM, ABReLU, garbled
//! circuits and a full tiny 2PC inference.

use aq2pnn::abrelu::abrelu;
use aq2pnn::gemm::secure_matmul;
use aq2pnn::sim::{run_pair, run_two_party, RunPlan};
use aq2pnn::ProtocolConfig;
use aq2pnn_gc::circuit::{encode_inputs, relu_on_shares};
use aq2pnn_gc::evaluate::{decode_with, evaluate};
use aq2pnn_gc::garble::{garble, select_input_labels};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_ot::{recv_batch, send_batch, LabelTable, OtChoice, OtGroup};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::{duplex, pack_bits, unpack_bits};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ring(c: &mut Criterion) {
    let q = Ring::new(16);
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<u64> = (0..4096).map(|_| q.sample(&mut rng)).collect();
    c.bench_function("ring/mul_4096", |b| {
        b.iter(|| {
            let mut acc = 1u64;
            for &x in &xs {
                acc = q.mul(acc, black_box(x));
            }
            acc
        });
    });
    c.bench_function("ring/decode_signed_4096", |b| {
        b.iter(|| xs.iter().map(|&x| q.decode_signed(black_box(x))).sum::<i64>());
    });
}

fn bench_packing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let q = Ring::new(14);
    let elems: Vec<u64> = (0..4096).map(|_| q.sample(&mut rng)).collect();
    c.bench_function("transport/pack_14bit_4096", |b| b.iter(|| pack_bits(black_box(&elems), 14)));
    let packed = pack_bits(&elems, 14);
    c.bench_function("transport/unpack_14bit_4096", |b| {
        b.iter(|| unpack_bits(black_box(&packed), 14, 4096));
    });
}

fn bench_ot(c: &mut Criterion) {
    let group = OtGroup::power_of_two(16);
    let labels = LabelTable::generate(4, &group, &mut StdRng::seed_from_u64(3));
    c.bench_function("ot/batch_256_of_1of4", |b| {
        b.iter(|| {
            let (s, r) = duplex();
            let (g2, l2) = (group.clone(), labels.clone());
            let h = std::thread::spawn(move || {
                let batch: Vec<Vec<u64>> = (0..256).map(|i| vec![i, i + 1, i + 2, i + 3]).collect();
                send_batch(&s, &g2, &l2, &batch, 8, &mut StdRng::seed_from_u64(4)).unwrap();
            });
            let choices: Vec<OtChoice> =
                (0..256).map(|i| OtChoice { choice: i % 4, n: 4 }).collect();
            let got = recv_batch(&r, &group, &labels, &choices, 8, &mut StdRng::seed_from_u64(5))
                .unwrap();
            h.join().unwrap();
            got
        });
    });
}

fn bench_gemm(c: &mut Criterion) {
    let cfg = ProtocolConfig::paper(16);
    let ring = cfg.q1();
    let mut rng = StdRng::seed_from_u64(6);
    for size in [8usize, 32] {
        let a = RingTensor::random(ring, vec![size, size], &mut rng);
        let b = RingTensor::random(ring, vec![size, size], &mut rng);
        let (a0, a1) = AShare::share(&a, &mut rng);
        let (b0, b1) = AShare::share(&b, &mut rng);
        c.bench_with_input(BenchmarkId::new("gemm/secure_matmul", size), &size, |bch, _| {
            bch.iter(|| {
                let (a0, a1, b0, b1) = (a0.clone(), a1.clone(), b0.clone(), b1.clone());
                run_pair(duplex(), &cfg, move |ctx| {
                    let (x, w) = match ctx.id {
                        PartyId::User => (a0.clone(), b0.clone()),
                        PartyId::ModelProvider => (a1.clone(), b1.clone()),
                    };
                    secure_matmul(ctx, &x, &w).unwrap()
                })
            });
        });
    }
}

fn bench_abrelu(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    for bits in [12u32, 16] {
        let cfg = ProtocolConfig::paper(bits);
        let ring = cfg.q1();
        let t = RingTensor::random(ring, vec![512], &mut rng);
        let (s0, s1) = AShare::share(&t, &mut rng);
        c.bench_with_input(BenchmarkId::new("abrelu/512_elems", bits), &bits, |bch, _| {
            bch.iter(|| {
                let (s0, s1) = (s0.clone(), s1.clone());
                run_pair(duplex(), &cfg, move |ctx| {
                    let mine = match ctx.id {
                        PartyId::User => s0.clone(),
                        PartyId::ModelProvider => s1.clone(),
                    };
                    abrelu(ctx, &mine).unwrap()
                })
            });
        });
    }
}

fn bench_gc(c: &mut Criterion) {
    let circ = relu_on_shares(16);
    let mut rng = StdRng::seed_from_u64(8);
    c.bench_function("gc/garble_relu16", |b| b.iter(|| garble(black_box(&circ), &mut rng)));
    let garbled = garble(&circ, &mut rng);
    let inputs = encode_inputs(&circ, 100, 55, 16);
    c.bench_function("gc/eval_relu16", |b| {
        b.iter(|| {
            let labels = select_input_labels(&garbled, &inputs);
            let out = evaluate(&circ, &garbled, &labels);
            decode_with(&circ, &garbled, &out)
        });
    });
}

fn bench_inference(c: &mut Criterion) {
    let data = SyntheticVision::tiny(4, 99);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), 100).unwrap();
    net.train_epochs(&data, 1, 8, 0.05);
    let model = QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).unwrap();
    let image = data.test()[0].image.clone();
    let cfg = ProtocolConfig::paper(16);
    let mut group = c.benchmark_group("inference");
    group.sample_size(10);
    group.bench_function("tiny_cnn_2pc_full", |b| {
        b.iter(|| run_two_party(duplex(), &model, &cfg, &[&image], &RunPlan::default()).unwrap());
    });
    group.bench_function("tiny_cnn_plaintext_int8", |b| {
        b.iter(|| model.forward(black_box(&image)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ring,
    bench_packing,
    bench_ot,
    bench_gemm,
    bench_abrelu,
    bench_gc,
    bench_inference
);
criterion_main!(benches);
