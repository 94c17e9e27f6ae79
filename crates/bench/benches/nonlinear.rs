//! Criterion benchmarks of the batched nonlinear engine: full two-party
//! `secure_sign` batches (the ABReLU comparison core, paper Sec. 4.3/4.4)
//! at the paper's ring widths, in both OT schedules, across three engine
//! variants:
//!
//! * `reference_1t` — the pre-optimization serial path, vendored verbatim
//!   in [`baseline`]: square-and-multiply group exponentiation
//!   ([`OtGroup::power_of_two_reference`]), per-slot recomputation of the
//!   label powers `r̂^{e2l(t)}`, per-element `split_groups` allocations,
//!   nested per-item OT message vectors and the quadratic lazy-round
//!   membership scan — all on one thread,
//! * `engine_1t` — the batched engine (per-batch key cache, dlog LUT, flat
//!   A2BM buffers, linear lazy walk) pinned to one thread,
//! * `engine_par` — the same engine with the thread fan-out enabled.
//!
//! Before any timing, every variant is run once and checked: sign flags
//! must be bit-identical across variants (and equal to the plaintext
//! `(x_0 + x_1) mod Q > 0`), and the `ChannelStats` transcripts must be
//! byte-identical — the engine may never trade correctness or
//! communication volume for speed. A LUT guard additionally asserts that
//! ℓ ≤ 20 groups never hit the square-and-multiply fallback during engine
//! runs.
//!
//! The run emits `BENCH_nonlinear.json` with every measurement plus derived
//! speedups, giving the perf trajectory its first nonlinear datapoint next
//! to the PR-1 GEMM numbers.

use aq2pnn::abrelu::secure_sign;
use aq2pnn::sim::run_pair;
use aq2pnn::{ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_ot::{lut_fallback_hits, OtGroup};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::{duplex, ChannelStats};
use criterion::{all_results, criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::io::Write;

/// The pre-PR serial `secure_sign` path, kept as the benchmark baseline.
///
/// This reproduces the hot path exactly as it stood before the batched
/// engine landed: the OT sender recomputes `r̂^{e2l(t)}` with
/// square-and-multiply for every slot of every item, A2BM splitting
/// allocates two `Vec`s per tensor element, the OT batch is a
/// `Vec<Vec<u64>>`, and the lazy second round rescans `undecided` per
/// element. Wire behavior (message sequence, byte counts, RNG draw order)
/// is identical to the engine, so the transcripts can be compared
/// byte-for-byte.
mod baseline {
    use aq2pnn::{PartyContext, ReluMode, ReluRounds};
    use aq2pnn_ot::{LabelTable, OtChoice, OtGroup};
    use aq2pnn_sharing::a2b::{group_widths, split_groups};
    use aq2pnn_sharing::{AShare, PartyId};
    use aq2pnn_transport::{
        pack_bits_reference, packed_len, unpack_bits_reference, Bytes, Endpoint,
    };
    use rand::Rng;

    /// Pre-PR wire codec: the generic per-element bit loop, with byte
    /// counts (and bytes) identical to today's fast paths.
    fn send_elems(ep: &Endpoint, elems: &[u64], bits: u32) {
        ep.send(Bytes::from(pack_bits_reference(elems, bits))).unwrap();
    }

    fn recv_elems(ep: &Endpoint, bits: u32, count: usize) -> Vec<u64> {
        let bytes = ep.recv().unwrap();
        assert!(bytes.len() >= packed_len(bits, count));
        unpack_bits_reference(&bytes, bits, count)
    }

    const LT: u64 = 1;
    const EQ: u64 = 2;
    const GT: u64 = 3;
    const CODE_BITS: u32 = 2;

    fn code(u_group: u8, slot: u8) -> u64 {
        match u_group.cmp(&slot) {
            std::cmp::Ordering::Less => LT,
            std::cmp::Ordering::Equal => EQ,
            std::cmp::Ordering::Greater => GT,
        }
    }

    fn sign_from_codes(codes: &[u64]) -> bool {
        let sign_cmp = codes[0];
        let rest = codes[1..].iter().copied().find(|&c| c != EQ).unwrap_or(EQ);
        if rest == EQ {
            return false;
        }
        if sign_cmp == EQ {
            rest == LT
        } else {
            rest == GT
        }
    }

    fn quadrant_decides(code1: u64) -> bool {
        code1 != EQ
    }

    fn send_batch<R: Rng + ?Sized>(
        ep: &Endpoint,
        group: &OtGroup,
        labels: &LabelTable,
        batch: &[Vec<u64>],
        msg_bits: u32,
        rng: &mut R,
    ) {
        let ebits = group.element_bits();
        let r_i = group.sample_exponent(rng);
        let r_hat = group.pow_g(r_i);
        send_elems(ep, &[r_hat], ebits);
        let r_matrix = recv_elems(ep, ebits, batch.len());
        let msg_mask = if msg_bits == 64 { u64::MAX } else { (1u64 << msg_bits) - 1 };
        let mut enc = Vec::with_capacity(batch.iter().map(Vec::len).sum());
        for (k, msgs) in batch.iter().enumerate() {
            for (t, &m) in msgs.iter().enumerate() {
                let unmasked = r_matrix[k] ^ group.pow(r_hat, labels.e2l(t));
                let key = group.pow(unmasked, r_i);
                enc.push((m ^ key) & msg_mask);
            }
        }
        send_elems(ep, &enc, msg_bits);
    }

    fn recv_batch<R: Rng + ?Sized>(
        ep: &Endpoint,
        group: &OtGroup,
        labels: &LabelTable,
        batch: &[OtChoice],
        msg_bits: u32,
        rng: &mut R,
    ) -> Vec<u64> {
        let ebits = group.element_bits();
        let r_hat = recv_elems(ep, ebits, 1)[0];
        let r_j: Vec<u64> = batch.iter().map(|_| group.sample_exponent(rng)).collect();
        let r_matrix: Vec<u64> = batch
            .iter()
            .zip(&r_j)
            .map(|(c, &rj)| group.pow(r_hat, labels.e2l(c.choice)) ^ group.pow_g(rj))
            .collect();
        send_elems(ep, &r_matrix, ebits);
        let total: usize = batch.iter().map(|c| c.n).sum();
        let enc = recv_elems(ep, msg_bits, total);
        let msg_mask = if msg_bits == 64 { u64::MAX } else { (1u64 << msg_bits) - 1 };
        let mut out = Vec::with_capacity(batch.len());
        let mut offset = 0usize;
        for (k, c) in batch.iter().enumerate() {
            let key = group.pow(r_hat, r_j[k]);
            out.push((enc[offset + c.choice] ^ key) & msg_mask);
            offset += c.n;
        }
        out
    }

    fn sender_batch(
        u_groups: &[Vec<u8>],
        widths: &[u32],
        from: usize,
        to: usize,
        subset: Option<&[usize]>,
    ) -> Vec<Vec<u64>> {
        let indices: Vec<usize> = match subset {
            Some(s) => s.to_vec(),
            None => (0..u_groups.len()).collect(),
        };
        let mut batch = Vec::with_capacity(indices.len() * (to - from));
        for &v in &indices {
            for g in from..to {
                let slots = 1usize << widths[g];
                batch.push((0..slots).map(|l| code(u_groups[v][g], l as u8)).collect());
            }
        }
        batch
    }

    fn receiver_choices(
        v_groups: &[Vec<u8>],
        widths: &[u32],
        from: usize,
        to: usize,
        subset: Option<&[usize]>,
    ) -> Vec<OtChoice> {
        let indices: Vec<usize> = match subset {
            Some(s) => s.to_vec(),
            None => (0..v_groups.len()).collect(),
        };
        let mut choices = Vec::with_capacity(indices.len() * (to - from));
        for &v in &indices {
            for g in from..to {
                choices.push(OtChoice { choice: v_groups[v][g] as usize, n: 1usize << widths[g] });
            }
        }
        choices
    }

    pub fn secure_sign(ctx: &mut PartyContext, x_q1: &AShare, mode: ReluMode) -> Option<Vec<u8>> {
        let ring = ctx.q1();
        let n = x_q1.len();
        let widths = group_widths(ring.bits());
        match ctx.id {
            PartyId::User => {
                let u_groups: Vec<Vec<u8>> = x_q1
                    .as_tensor()
                    .iter()
                    .map(|&x0| split_groups(ring, ring.neg(x0)).iter().map(|g| g.value).collect())
                    .collect();
                match ctx.cfg.relu_rounds {
                    ReluRounds::Single => {
                        let batch = sender_batch(&u_groups, &widths, 0, widths.len(), None);
                        send_batch(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &batch,
                            CODE_BITS,
                            &mut ctx.rng,
                        );
                    }
                    ReluRounds::Lazy => {
                        let batch = sender_batch(&u_groups, &widths, 0, 2, None);
                        send_batch(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &batch,
                            CODE_BITS,
                            &mut ctx.rng,
                        );
                        let bitmap = recv_elems(&ctx.ep, 1, n);
                        let undecided: Vec<usize> = bitmap
                            .iter()
                            .enumerate()
                            .filter(|(_, &b)| b == 1)
                            .map(|(i, _)| i)
                            .collect();
                        if !undecided.is_empty() {
                            let batch =
                                sender_batch(&u_groups, &widths, 2, widths.len(), Some(&undecided));
                            send_batch(
                                &ctx.ep,
                                &ctx.group,
                                &ctx.labels,
                                &batch,
                                CODE_BITS,
                                &mut ctx.rng,
                            );
                        }
                    }
                }
                match mode {
                    ReluMode::RevealedSign => {
                        let t_m = recv_elems(&ctx.ep, 1, n);
                        Some(t_m.iter().map(|&b| b as u8).collect())
                    }
                    ReluMode::MaskedMux => None,
                }
            }
            PartyId::ModelProvider => {
                let v_groups: Vec<Vec<u8>> = x_q1
                    .as_tensor()
                    .iter()
                    .map(|&x1| split_groups(ring, x1).iter().map(|g| g.value).collect())
                    .collect();
                let flags: Vec<u8> = match ctx.cfg.relu_rounds {
                    ReluRounds::Single => {
                        let choices = receiver_choices(&v_groups, &widths, 0, widths.len(), None);
                        let codes = recv_batch(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &choices,
                            CODE_BITS,
                            &mut ctx.rng,
                        );
                        let u = widths.len();
                        (0..n)
                            .map(|v| u8::from(sign_from_codes(&codes[v * u..(v + 1) * u])))
                            .collect()
                    }
                    ReluRounds::Lazy => {
                        let choices = receiver_choices(&v_groups, &widths, 0, 2, None);
                        let head = recv_batch(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &choices,
                            CODE_BITS,
                            &mut ctx.rng,
                        );
                        let undecided: Vec<usize> =
                            (0..n).filter(|&v| !quadrant_decides(head[2 * v + 1])).collect();
                        let bitmap: Vec<u64> =
                            (0..n).map(|v| u64::from(undecided.contains(&v))).collect();
                        send_elems(&ctx.ep, &bitmap, 1);
                        let tail = if undecided.is_empty() {
                            Vec::new()
                        } else {
                            let choices = receiver_choices(
                                &v_groups,
                                &widths,
                                2,
                                widths.len(),
                                Some(&undecided),
                            );
                            recv_batch(
                                &ctx.ep,
                                &ctx.group,
                                &ctx.labels,
                                &choices,
                                CODE_BITS,
                                &mut ctx.rng,
                            )
                        };
                        let rest_groups = widths.len() - 2;
                        let mut flags = Vec::with_capacity(n);
                        let mut cursor = 0usize;
                        for v in 0..n {
                            let mut codes = vec![head[2 * v], head[2 * v + 1]];
                            if undecided.contains(&v) {
                                codes.extend_from_slice(&tail[cursor..cursor + rest_groups]);
                                cursor += rest_groups;
                            }
                            flags.push(u8::from(sign_from_codes(&codes)));
                        }
                        flags
                    }
                };
                if mode == ReluMode::RevealedSign {
                    let t_m: Vec<u64> = flags.iter().map(|&b| u64::from(b)).collect();
                    send_elems(&ctx.ep, &t_m, 1);
                }
                Some(flags)
            }
        }
    }
}

/// (ring bits, batch elements): the paper's INT12/INT16 carriers at a
/// small and a conv-layer-sized activation count.
const CASES: &[(u32, usize)] = &[(12, 1024), (12, 16384), (16, 1024), (16, 16384)];

const ROUNDS: &[(ReluRounds, &str)] = &[(ReluRounds::Single, "single"), (ReluRounds::Lazy, "lazy")];

fn make_shares(bits: u32, n: usize) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
    let ring = Ring::new(bits);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5151 ^ u64::from(bits) ^ n as u64);
    let s0: Vec<u64> = (0..n).map(|_| ring.sample(&mut rng)).collect();
    let s1: Vec<u64> = (0..n).map(|_| ring.sample(&mut rng)).collect();
    let expect: Vec<u8> = s0
        .iter()
        .zip(&s1)
        .map(|(&a, &b)| u8::from(ring.decode_signed(ring.add(a, b)) > 0))
        .collect();
    (s0, s1, expect)
}

/// One full two-party `secure_sign` batch; `reference` runs the vendored
/// pre-PR path on the square-and-multiply group (both parties).
fn run_sign(
    cfg: &ProtocolConfig,
    s0: &[u64],
    s1: &[u64],
    reference: bool,
) -> (Vec<u8>, ChannelStats, ChannelStats) {
    let ring = cfg.q1();
    let (s0, s1) = (s0.to_vec(), s1.to_vec());
    let ((flags, st0), (_, st1)) = run_pair(duplex(), cfg, move |ctx| {
        if reference {
            ctx.group = OtGroup::power_of_two_reference(ctx.cfg.q1_bits);
        } else {
            assert!(
                ctx.group.lut_backed() == (ctx.cfg.q1_bits <= 20),
                "ℓ ≤ 20 engine groups must be LUT-backed"
            );
        }
        let raw = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        let t = RingTensor::from_raw(ring, vec![raw.len()], raw).unwrap();
        let share = AShare::from_tensor(t);
        ctx.ep.reset_stats();
        let flags = if reference {
            baseline::secure_sign(ctx, &share, ReluMode::RevealedSign).unwrap()
        } else {
            secure_sign(ctx, &share, ReluMode::RevealedSign).unwrap().flags.unwrap()
        };
        (flags, ctx.ep.stats())
    });
    (flags, st0, st1)
}

fn bench_secure_sign(c: &mut Criterion) {
    for &(bits, n) in CASES {
        let (s0, s1, expect) = make_shares(bits, n);
        for &(rounds, rname) in ROUNDS {
            let mut cfg = ProtocolConfig::paper(bits);
            cfg.relu_rounds = rounds;
            let case = format!("l{bits}_n{n}_{rname}");

            // Correctness + transcript-identity gate before any timing:
            // the pre-PR path, the serial engine and the parallel engine
            // must agree bit-for-bit and byte-for-byte, and the engine
            // must never fall off the LUT path.
            std::env::set_var("AQ2PNN_THREADS", "1");
            let reference = run_sign(&cfg, &s0, &s1, true);
            let fallbacks_before = lut_fallback_hits();
            let serial = run_sign(&cfg, &s0, &s1, false);
            std::env::remove_var("AQ2PNN_THREADS");
            let parallel = run_sign(&cfg, &s0, &s1, false);
            assert_eq!(lut_fallback_hits(), fallbacks_before, "engine left the LUT path: {case}");
            for (name, run) in [("reference", &reference), ("1t", &serial), ("par", &parallel)] {
                assert_eq!(run.0, expect, "wrong sign flags ({name}): {case}");
            }
            assert_eq!(reference.1, serial.1, "user transcript drifted (1t): {case}");
            assert_eq!(reference.1, parallel.1, "user transcript drifted (par): {case}");
            assert_eq!(reference.2, serial.2, "provider transcript drifted (1t): {case}");
            assert_eq!(reference.2, parallel.2, "provider transcript drifted (par): {case}");

            std::env::set_var("AQ2PNN_THREADS", "1");
            c.bench_with_input(BenchmarkId::new("sign/reference_1t", &case), &(), |bch, ()| {
                bch.iter(|| run_sign(&cfg, &s0, &s1, true));
            });
            c.bench_with_input(BenchmarkId::new("sign/engine_1t", &case), &(), |bch, ()| {
                bch.iter(|| run_sign(&cfg, &s0, &s1, false));
            });
            std::env::remove_var("AQ2PNN_THREADS");
            c.bench_with_input(BenchmarkId::new("sign/engine_par", &case), &(), |bch, ()| {
                bch.iter(|| run_sign(&cfg, &s0, &s1, false));
            });
        }
    }
}

criterion_group!(nonlinear, bench_secure_sign);

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes the measurement registry (plus derived speedups) by hand —
/// the offline workspace carries no JSON dependency.
fn write_report(path: &str) -> std::io::Result<()> {
    let results = all_results();
    let ns = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.ns_per_iter);
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters_per_batch\": {}}}{sep}\n",
            json_escape(&r.name),
            r.ns_per_iter,
            r.iters
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    let mut lines = Vec::new();
    for &(bits, n) in CASES {
        for &(_, rname) in ROUNDS {
            let case = format!("l{bits}_n{n}_{rname}");
            let (reference, single, par) = (
                ns(&format!("sign/reference_1t/{case}")),
                ns(&format!("sign/engine_1t/{case}")),
                ns(&format!("sign/engine_par/{case}")),
            );
            if let (Some(reference), Some(single), Some(par)) = (reference, single, par) {
                lines.push(format!(
                    "    {{\"case\": \"{case}\", \"engine_1t_vs_reference\": {:.2}, \
                     \"parallel_vs_reference\": {:.2}, \"parallel_vs_engine_1t\": {:.2}}}",
                    reference / single,
                    reference / par,
                    single / par
                ));
            }
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::File::create(path)?.write_all(out.as_bytes())
}

fn main() {
    nonlinear();
    let path = std::env::var("BENCH_NONLINEAR_JSON")
        .unwrap_or_else(|_| "BENCH_nonlinear.json".to_string());
    write_report(&path).expect("report written");
    println!("wrote {path}");
}
