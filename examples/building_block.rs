//! Reproduction of paper Fig. 8: one quantized DNN building block
//! (Conv2D → BNReQ → ABReLU) executed step by step in the ciphertext
//! domain, with the ring-size changes made visible.
//!
//! Steps (numbers match the figure): ① 8-bit quantized model from the
//! provider; ② data expanded onto the `Q1` carrier; ③ additive shares
//! deployed; ④ ring-size extension `Q1 → Q2`; ⑤ mask exchange;
//! ⑥ 2PC-Conv2D via AS-GEMM; ⑦ 2PC-BNReQ (scale + truncate);
//! ⑧ correctness check against plaintext; ⑨ ABReLU; ⑩ block outputs.
//!
//! ```sh
//! cargo run --release --example building_block
//! ```

use aq2pnn::abrelu::abrelu;
use aq2pnn::ops::{requant_share, secure_conv2d, ConvGeometry};
use aq2pnn::sim::run_pair;
use aq2pnn::ProtocolConfig;
use aq2pnn_nn::quant::Requant;
use aq2pnn_ring::RingTensor;
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::duplex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 8 uses Q1 = 2^12, Q2 = 2^16 for an 8-bit quantized model.
    let mut cfg = ProtocolConfig::exact(12);
    cfg.q2_bits = 16;
    let (q1, q2) = (cfg.q1(), cfg.q2());
    println!("① 8-bit quantized weights/inputs from the plaintext domain");
    println!("② carrier ring Q1 = {q1}, MAC ring Q2 = {q2}\n");

    // A 2x4x4 input, one 3x3 conv to 2 channels.
    let g =
        ConvGeometry { in_c: 2, out_c: 2, k: 3, stride: 1, pad: 1, in_hw: (4, 4), out_hw: (4, 4) };
    let x_vals: Vec<i64> = (0..32).map(|i| (i % 13) - 6).collect();
    let w_vals: Vec<i64> = (0..36).map(|i| i64::from((i * 7) % 9) - 4).collect();
    let requant = Requant { mult: 77, shift: 8 }; // I_m = 77, I_e = 8 (≈ 0.30)

    let input = RingTensor::from_signed(q1, vec![2, 4, 4], &x_vals)?;
    // Weight matrix in [k·k·in_c, out_c] layout for AS-GEMM.
    let mut wm = vec![0u64; 18 * 2];
    for oc in 0..2 {
        for kk in 0..18 {
            wm[kk * 2 + oc] = q2.encode_signed_wrapping(w_vals[oc * 18 + kk]);
        }
    }
    let weight = RingTensor::from_raw(q2, vec![18, 2], wm)?;
    let bias = RingTensor::from_signed(q2, vec![2], &[10, -10])?;

    println!("③ deploying additive secret shares of input and weights");
    let mut rng = StdRng::seed_from_u64(3);
    let (x0, x1) = AShare::share(&input, &mut rng);
    let (w0, w1) = AShare::share(&weight, &mut rng);
    let (b0, b1) = AShare::share(&bias, &mut rng);
    println!("   party 0 input share[0..4]: {:?}", &x0.as_tensor().as_slice()[..4]);
    println!("   party 1 input share[0..4]: {:?}", &x1.as_tensor().as_slice()[..4]);

    let (r0, r1) = run_pair(duplex(), &cfg, move |ctx| {
        let (xs, ws, bs) = match ctx.id {
            PartyId::User => (x0.clone(), w0.clone(), b0.clone()),
            PartyId::ModelProvider => (x1.clone(), w1.clone(), b1.clone()),
        };
        // ④ ring-size extension Q1 → Q2 (sign extension of shares).
        let x2 = ctx.extend_share(&xs, ctx.q2()).expect("extension");
        // ⑤/⑥ mask exchange + 2PC-Conv2D over AS-GEMM.
        let acc = secure_conv2d(ctx, &x2, &g, &ws, &bs).expect("conv");
        // ⑦ 2PC-BNReQ: ×I_m then truncate I_e, back onto Q1.
        let out = requant_share(ctx, &acc, requant, ctx.q1()).expect("bnreq");
        // ⑨ ABReLU.
        let relu = abrelu(ctx, &out).expect("abrelu");
        (acc, out, relu, ctx.ep.stats())
    });

    // ⑧ correctness check: recover and compare with plaintext.
    let acc = AShare::recover(&r0.0, &r1.0)?;
    let pre = AShare::recover(&r0.1, &r1.1)?;
    let post = AShare::recover(&r0.2, &r1.2)?;
    println!("\n⑥ conv accumulator (recovered, on {q2}): {:?}…", &acc.to_signed()[..4]);
    println!("⑦ after BNReQ (back on {q1}):            {:?}…", &pre.to_signed()[..4]);
    println!("⑨ after ABReLU:                          {:?}…", &post.to_signed()[..4]);

    // Plaintext reference.
    let mut expect = Vec::new();
    for oc in 0..2usize {
        for oy in 0..4i64 {
            for ox in 0..4i64 {
                let mut a = [10i64, -10][oc];
                for ic in 0..2usize {
                    for ky in 0..3i64 {
                        for kx in 0..3i64 {
                            let (iy, ix) = (oy + ky - 1, ox + kx - 1);
                            if (0..4).contains(&iy) && (0..4).contains(&ix) {
                                a += w_vals[(oc * 2 + ic) * 9 + (ky * 3 + kx) as usize]
                                    * x_vals[(ic * 4 + iy as usize) * 4 + ix as usize];
                            }
                        }
                    }
                }
                expect.push(requant.apply(a).max(0));
            }
        }
    }
    assert_eq!(post.to_signed(), expect, "block output must match plaintext");
    println!("\n⑧ ✓ recovered block output matches the plaintext reference");
    println!("⑩ block used {} B of communication (party 0)", r0.3.total_bytes());
    Ok(())
}
