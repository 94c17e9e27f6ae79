//! 2PC linear operators: Conv2D/Linear lowering onto AS-GEMM, the BNReQ
//! requantization, and the AS-ALU pooling sums.
//!
//! Everything here follows the paper's operator decomposition (Sec. 5.1):
//! `2PC-Conv2D` is im2col + [`crate::gemm::secure_matmul`]; `2PC-BNReQ` is
//! one P-C multiplication by `I_m` plus a share truncation by `I_e`
//! (AS-ALU only — **no communication**, which is why the paper's Table 5
//! shows BNReQ barely improving with bit-width); average pooling is an
//! AS-ALU sum plus a dyadic requant.

use crate::gemm::{secure_matmul_expanded, secure_matmul_prepared};
use crate::{PartyContext, ProtocolError};
use aq2pnn_nn::quant::Requant;
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::beaver::TripleShare;
use aq2pnn_sharing::AShare;

/// Geometry of a convolution, shared by lowering and cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
    /// Input spatial dims.
    pub in_hw: (usize, usize),
    /// Output spatial dims.
    pub out_hw: (usize, usize),
}

/// im2col on a share tensor: lowers a CHW feature-map share into the
/// `[out_pixels, in_c·k·k]` patch matrix AS-GEMM consumes. Zero padding is
/// exact on shares (zero is a valid share of zero for both parties).
///
/// # Panics
///
/// Panics if the share length does not match the geometry.
#[must_use]
pub fn im2col(x: &AShare, g: &ConvGeometry) -> AShare {
    AShare::from_tensor(im2col_tensor(x.as_tensor(), g))
}

/// Tensor-level im2col — the public linear `expand` map handed to
/// [`crate::gemm::secure_matmul_expanded`].
///
/// # Panics
///
/// Panics if the tensor length does not match the geometry.
#[must_use]
pub fn im2col_tensor(x: &RingTensor, g: &ConvGeometry) -> RingTensor {
    let (ih, iw) = g.in_hw;
    let (oh, ow) = g.out_hw;
    assert_eq!(x.len(), g.in_c * ih * iw, "im2col input length mismatch");
    let ring = x.ring();
    let cols = g.in_c * g.k * g.k;
    let mut out = vec![0u64; oh * ow * cols];
    let xs = x.as_slice();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * cols;
            let mut c = 0usize;
            for ic in 0..g.in_c {
                for ky in 0..g.k {
                    let iy = (oy * g.stride + ky) as i64 - g.pad as i64;
                    for kx in 0..g.k {
                        let ix = (ox * g.stride + kx) as i64 - g.pad as i64;
                        out[row + c] = if iy >= 0 && iy < ih as i64 && ix >= 0 && ix < iw as i64 {
                            xs[(ic * ih + iy as usize) * iw + ix as usize]
                        } else {
                            0
                        };
                        c += 1;
                    }
                }
            }
        }
    }
    RingTensor::from_raw(ring, vec![oh * ow, cols], out).expect("consistent geometry")
}

/// 2PC-Conv2D: im2col, AS-GEMM against the `[in_c·k·k, out_c]` weight
/// share, bias add. Returns the flat CHW output share (accumulator scale,
/// on the input's ring).
///
/// # Errors
///
/// Propagates GEMM/transport failures.
pub fn secure_conv2d(
    ctx: &mut PartyContext,
    x: &AShare,
    g: &ConvGeometry,
    w_mat: &AShare,
    bias: &AShare,
) -> Result<AShare, ProtocolError> {
    let geom = *g;
    let out_mat = secure_matmul_expanded(ctx, x, w_mat, move |t| im2col_tensor(t, &geom))?; // [oh*ow, out_c]
    conv_finish(g, 1, &out_mat, bias)
}

/// 2PC-Conv2D online pass for prepared models: like [`secure_conv2d`], but
/// the weight mask is already opened and the triples come from a resident
/// lane, so only the per-inference `E` exchange touches the wire. `b`
/// images' shares are concatenated along the leading axis
/// (`[b·in_c, ih, iw]` flat), one triple per image, one `E` round-trip for
/// the whole batch. Output is `[b·out_c, oh, ow]`.
///
/// # Errors
///
/// Propagates GEMM/transport failures.
#[allow(clippy::too_many_arguments)]
pub fn secure_conv2d_prepared(
    ctx: &mut PartyContext,
    x: &AShare,
    b: usize,
    g: &ConvGeometry,
    w_mat: &AShare,
    bias: &AShare,
    f_open: &RingTensor,
    triples: &[TripleShare],
) -> Result<AShare, ProtocolError> {
    let geom = *g;
    let (ih, iw) = g.in_hw;
    let item_shape = [g.in_c, ih, iw];
    let out_mat =
        secure_matmul_prepared(ctx, x, b, &item_shape, w_mat, f_open, triples, move |t| {
            im2col_tensor(t, &geom)
        })?;
    conv_finish(g, b, &out_mat, bias)
}

/// Transposes the GEMM output to CHW and adds the per-channel bias share:
/// the output rows are the `b` images' `[oh·ow, out_c]` blocks stacked;
/// each block is transposed independently, yielding `[b·out_c, oh, ow]`.
fn conv_finish(
    g: &ConvGeometry,
    b: usize,
    out_mat: &AShare,
    bias: &AShare,
) -> Result<AShare, ProtocolError> {
    let ring = out_mat.ring();
    let (oh, ow) = g.out_hw;
    let m = out_mat.as_tensor().as_slice();
    let bv = bias.as_tensor().as_slice();
    let pixels = oh * ow;
    let per = g.out_c * pixels;
    let mut out = vec![0u64; b * per];
    for i in 0..b {
        let src = i * per;
        let dst = i * per;
        for p in 0..pixels {
            for oc in 0..g.out_c {
                out[dst + oc * pixels + p] = ring.add(m[src + p * g.out_c + oc], bv[oc]);
            }
        }
    }
    Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![b * g.out_c, oh, ow], out)?))
}

/// 2PC-Linear online pass for prepared models: a 1×`in_f` AS-GEMM against
/// `[in_f, out_f]` plus bias (see [`secure_conv2d_prepared`]). `b` input
/// rows are concatenated flat (`b · in_f` elements), one triple per row,
/// one `E` round-trip. Output is the flat `[b·out_f]` share.
///
/// # Errors
///
/// Propagates GEMM/transport failures.
pub fn secure_linear_prepared(
    ctx: &mut PartyContext,
    x: &AShare,
    b: usize,
    w_mat: &AShare,
    bias: &AShare,
    f_open: &RingTensor,
    triples: &[TripleShare],
) -> Result<AShare, ProtocolError> {
    let in_f = x.len() / b;
    let item_shape = [in_f];
    let out = secure_matmul_prepared(ctx, x, b, &item_shape, w_mat, f_open, triples, move |t| {
        let mut m = t.clone();
        m.reshape(vec![1, in_f]).expect("row vector");
        m
    })?;
    linear_finish(b, &out, bias)
}

/// Adds the bias share to each image's flat GEMM output row; the result
/// stays flat (`[b·out_f]`).
fn linear_finish(b: usize, out: &AShare, bias: &AShare) -> Result<AShare, ProtocolError> {
    let ring = out.ring();
    let o = out.as_tensor().as_slice();
    let bv = bias.as_tensor().as_slice();
    let per = o.len() / b;
    // secrecy: allow(secret-index, "`j % per` is the public position within an output row; lengths and batch size are architecture metadata")
    let data: Vec<u64> = o.iter().enumerate().map(|(j, &v)| ring.add(v, bv[j % per])).collect();
    Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![data.len()], data)?))
}

/// 2PC-BNReQ: requantizes an accumulator-scale share down to the
/// activation carrier `out_ring`, computing `(x · I_m) >> I_e` on shares.
///
/// The P-C multiplication needs `I_m`'s extra magnitude, so the share is
/// first (locally or exactly, per config) widened to a ring that holds the
/// product; when even 63 bits cannot (very wide configs), the input is
/// pre-truncated by the few missing bits, mirroring the DSP48 width limit.
///
/// # Errors
///
/// Propagates share-conversion failures.
pub fn requant_share(
    ctx: &mut PartyContext,
    x: &AShare,
    rq: Requant,
    out_ring: Ring,
) -> Result<AShare, ProtocolError> {
    let in_bits = x.ring().bits();
    let mult_bits = 64 - (rq.mult as u64).leading_zeros();
    let need = in_bits + mult_bits + 1;
    let pre = need.saturating_sub(63).min(rq.shift);
    let x = ctx.truncate_share(x, pre)?;
    let wide = Ring::new(need.min(63).max(in_bits));
    let x = ctx.extend_share(&x, wide)?;
    let prod = x.mul_plain(rq.mult as u64);
    let trunc = ctx.truncate_share(&prod, rq.shift - pre)?;
    Ok(trunc.narrow(out_ring))
}

/// Windowed pooling sum on shares (AS-ALU only): for each output, the sum
/// of its window elements. Used by 2PC-AvgPool (followed by a dyadic
/// requant).
///
/// # Panics
///
/// Panics if the share length does not match the geometry.
#[must_use]
pub fn pool_sum(
    x: &AShare,
    c: usize,
    in_hw: (usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
    out_hw: (usize, usize),
) -> AShare {
    let (ih, iw) = in_hw;
    let (oh, ow) = out_hw;
    assert_eq!(x.len(), c * ih * iw, "pool input length mismatch");
    let ring = x.ring();
    let xs = x.as_tensor().as_slice();
    let mut out = vec![0u64; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0u64;
                for ky in 0..k {
                    let iy = (oy * stride + ky) as i64 - pad as i64;
                    if iy < 0 || iy >= ih as i64 {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as i64 - pad as i64;
                        if ix < 0 || ix >= iw as i64 {
                            continue;
                        }
                        acc = ring.add(acc, xs[(ch * ih + iy as usize) * iw + ix as usize]);
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc;
            }
        }
    }
    AShare::from_tensor(RingTensor::from_raw(ring, vec![c, oh, ow], out).expect("geometry"))
}

/// Per-channel global sum (for 2PC-GlobalAvgPool).
#[must_use]
pub fn channel_sum(x: &AShare, c: usize, spatial: usize) -> AShare {
    assert_eq!(x.len(), c * spatial, "channel_sum length mismatch");
    let ring = x.ring();
    let xs = x.as_tensor().as_slice();
    let data: Vec<u64> = (0..c)
        .map(|ch| {
            xs[ch * spatial..(ch + 1) * spatial].iter().fold(0u64, |acc, &v| ring.add(acc, v))
        })
        .collect();
    AShare::from_tensor(RingTensor::from_raw(ring, vec![c], data).expect("geometry"))
}

/// Gathers the window member indices of each pooled output — the
/// tournament seeds for 2PC-MaxPool.
#[must_use]
pub fn pool_windows(
    c: usize,
    in_hw: (usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
    out_hw: (usize, usize),
) -> Vec<Vec<usize>> {
    let (ih, iw) = in_hw;
    let (oh, ow) = out_hw;
    let mut windows = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut win = Vec::with_capacity(k * k);
                for ky in 0..k {
                    let iy = (oy * stride + ky) as i64 - pad as i64;
                    if iy < 0 || iy >= ih as i64 {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as i64 - pad as i64;
                        if ix < 0 || ix >= iw as i64 {
                            continue;
                        }
                        win.push((ch * ih + iy as usize) * iw + ix as usize);
                    }
                }
                windows.push(win);
            }
        }
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn im2col_matches_reference() {
        let ring = Ring::new(16);
        let g = ConvGeometry {
            in_c: 2,
            out_c: 1,
            k: 2,
            stride: 1,
            pad: 0,
            in_hw: (3, 3),
            out_hw: (2, 2),
        };
        let vals: Vec<i64> = (0..18).collect();
        let t = RingTensor::from_signed(ring, vec![2, 3, 3], &vals).unwrap();
        let x = AShare::from_tensor(t);
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[4, 8]);
        // First output pixel gathers (0,1,3,4) of channel 0 and (9,10,12,13) of channel 1.
        let row0: Vec<i64> =
            cols.as_tensor().as_slice()[..8].iter().map(|&v| ring.decode_signed(v)).collect();
        assert_eq!(row0, vec![0, 1, 3, 4, 9, 10, 12, 13]);
    }

    #[test]
    fn im2col_pads_with_zero() {
        let ring = Ring::new(16);
        let g = ConvGeometry {
            in_c: 1,
            out_c: 1,
            k: 3,
            stride: 1,
            pad: 1,
            in_hw: (2, 2),
            out_hw: (2, 2),
        };
        let t = RingTensor::from_signed(ring, vec![1, 2, 2], &[1, 2, 3, 4]).unwrap();
        let cols = im2col(&AShare::from_tensor(t), &g);
        // Output (0,0) window covers top-left corner: 5 zeros.
        let row0: Vec<i64> =
            cols.as_tensor().as_slice()[..9].iter().map(|&v| ring.decode_signed(v)).collect();
        assert_eq!(row0, vec![0, 0, 0, 0, 1, 2, 0, 3, 4]);
    }

    #[test]
    fn pool_sum_matches_reference() {
        let ring = Ring::new(16);
        let t = RingTensor::from_signed(ring, vec![1, 2, 2], &[1, 2, 3, 4]).unwrap();
        let s = pool_sum(&AShare::from_tensor(t), 1, (2, 2), 2, 2, 0, (1, 1));
        assert_eq!(s.as_tensor().to_signed(), vec![10]);
    }

    #[test]
    fn channel_sum_matches_reference() {
        let ring = Ring::new(16);
        let t = RingTensor::from_signed(ring, vec![2, 2], &[1, 2, 10, 20]).unwrap();
        let s = channel_sum(&AShare::from_tensor(t), 2, 2);
        assert_eq!(s.as_tensor().to_signed(), vec![3, 30]);
    }

    #[test]
    fn pool_windows_counts() {
        let w = pool_windows(1, (4, 4), 2, 2, 0, (2, 2));
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|win| win.len() == 4));
        // ResNet stem style: padded 3x3/s2 windows truncate at the border.
        let w = pool_windows(1, (4, 4), 3, 2, 1, (2, 2));
        assert_eq!(w[0].len(), 4); // corner window loses the padded row/col
    }

    #[test]
    fn requant_share_matches_plaintext_dyadic() {
        use crate::sim::run_pair;
        use crate::ProtocolConfig;
        use aq2pnn_sharing::PartyId;
        use aq2pnn_transport::duplex;
        let cfg = ProtocolConfig::exact(16);
        let q2 = cfg.q2();
        let rq = Requant { mult: 19661, shift: 18 }; // ≈ 0.075
        let vals = vec![40000i64, -40000, 1234, -1, 0];
        let mut rng = StdRng::seed_from_u64(5);
        let t = RingTensor::from_signed(q2, vec![vals.len()], &vals).unwrap();
        let (s0, s1) = AShare::share(&t, &mut rng);
        let q1 = cfg.q1();
        let (o0, o1) = run_pair(duplex(), &cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            requant_share(ctx, &mine, rq, q1).unwrap()
        });
        let rec = AShare::recover(&o0, &o1).unwrap();
        let expect: Vec<i64> = vals.iter().map(|&v| rq.apply(v)).collect();
        assert_eq!(rec.to_signed(), expect);
    }
}
