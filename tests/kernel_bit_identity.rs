//! Bit-identity property suite for the GEMM and convolution kernels.
//!
//! The determinism contract: the packed kernels (`matmul_into`, and the
//! convolution forward `gemm_im2col3d`) produce outputs equal to the
//! oracle `matmul_into_reference` at `f32::to_bits` granularity for every
//! shape — every kernel runs the identical per-element float program, so
//! packing and tiling can never move a bit. The generated shapes land on
//! every `MR`/`NR` tile remainder class and every 8-row block remainder.
//!
//! Every 8-row block remainder class must survive the packed kernel's
//! full-depth store schedule. The convolution forward lowers its
//! input one packed B strip at a time; over strides, pads, kernel
//! extents and output widths it must equal the oracle against the
//! materialized `im2col3d` matrix. The convolution weight gradient
//! lowers the same rows into the strips of the transposed operand; over
//! random geometries, with tap counts on both sides of one and two
//! 32-column strips, it must equal the oracle against the materialized,
//! transposed matrix. Both run at every convolution geometry the six
//! backbones build, at the tiny and experiment clip sizes. Callers on
//! several threads at once share only the workspace bin, and must still
//! land on the oracle's bits.
//!
//! Failing case seeds persist to `tests/properties.regressions` and
//! replay before fresh generation (asserted at the bottom of this file).

use duo_check::{check, prop_assert_eq, Config, Strategy};
use duo_tensor::{
    gemm_im2col3d, gemm_im2col3d_t, im2col3d, matmul_into, matmul_into_reference, Conv3dSpec,
    Rng64, Tensor,
};
use std::ops::Range;

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/properties.regressions");

fn config() -> Config {
    Config::default().with_cases(24).with_regressions(REGRESSIONS)
}

/// GEMM dimension strategy, shared with the replay-order test below so
/// replayed seeds regenerate the exact committed cases.
fn dim() -> Range<usize> {
    1..48
}

fn seed() -> Range<u64> {
    0..0x1000_0000
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn reference(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[a.dims()[0], b.dims()[1]]);
    matmul_into_reference(a, b, &mut out).unwrap();
    out
}

/// `(channels, kt, kh, kw)`: tap counts `C·kt·kh·kw` of 1 and 8 (one
/// narrow strip), 31, 32 and 33 (either side of one 32-column strip),
/// 63, 64 and 65 (of two), and C3D conv1's 81 (two strips and a tail).
const TAPS: [(usize, usize, usize, usize); 9] = [
    (1, 1, 1, 1),
    (1, 2, 2, 2),
    (31, 1, 1, 1),
    (2, 2, 2, 4),
    (11, 1, 3, 1),
    (7, 1, 3, 3),
    (4, 1, 4, 4),
    (13, 1, 5, 1),
    (3, 3, 3, 3),
];

check! {
    #![config(config())]

    fn packed_matmul_is_bitwise_reference(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut packed = Tensor::full(&[m, n], f32::NAN);
        matmul_into(&a, &b, &mut packed).unwrap();
        prop_assert_eq!(bits(&reference(&a, &b)), bits(&packed), "({m},{k},{n}) drifted");
    }

    fn packed_lowering_is_bitwise_im2col_gemm(
        ocs in (1usize..20, 1usize..4, seed()),
        thw in (1usize..7, 1usize..9, 1usize..40),
        k in (1usize..5, 1usize..5, 1usize..5),
        st in (1usize..4, 1usize..4, 1usize..4),
        pad in (0usize..4, 0usize..4, 0usize..4),
    ) {
        // Strides 1–3, pads 0–3 (pad ≥ kernel included), kernels 1–4
        // (stride > kernel and `kt = 1` included), output widths from 1
        // across several 32-column strips, and row counts on every 8-row
        // block remainder.
        let (oc, chans, s) = ocs;
        let spec = Conv3dSpec {
            in_channels: chans,
            kt: k.0,
            kh: k.1,
            kw: k.2,
            st: st.0,
            sh: st.1,
            sw: st.2,
            pt: pad.0,
            ph: pad.1,
            pw: pad.2,
        };
        let t = thw.0.max(k.0.saturating_sub(2 * pad.0));
        let h = thw.1.max(k.1.saturating_sub(2 * pad.1));
        let w = thw.2.max(k.2.saturating_sub(2 * pad.2));
        let mut rng = Rng64::new(s);
        let input = Tensor::randn(&[chans, t, h, w], 1.0, rng.as_rng());
        let cols = im2col3d(&input, &spec).unwrap();
        let weight = Tensor::randn(&[oc, cols.dims()[0]], 1.0, rng.as_rng());
        let want = reference(&weight, &cols);
        let mut fused = Tensor::full(want.dims(), f32::NAN);
        gemm_im2col3d(&weight, &input, &spec, &mut fused).unwrap();
        prop_assert_eq!(bits(&want), bits(&fused), "[{chans},{t},{h},{w}] oc{oc} {spec:?}");
    }

    fn lowered_weight_gradient_is_bitwise_transposed_im2col_gemm(
        tap in 0usize..TAPS.len(),
        ms in (1usize..20, seed()),
        thw in (1usize..7, 1usize..9, 1usize..12),
        st in (1usize..4, 1usize..4, 1usize..4),
        pad in (0usize..3, 0usize..3, 0usize..3),
    ) {
        // Output-gradient rows on every 8-row block remainder; strides
        // 1–3 and pads 0–2 over extents grown to fit the kernel.
        let (chans, kt, kh, kw) = TAPS[tap];
        let (m, s) = ms;
        let spec = Conv3dSpec {
            in_channels: chans,
            kt,
            kh,
            kw,
            st: st.0,
            sh: st.1,
            sw: st.2,
            pt: pad.0,
            ph: pad.1,
            pw: pad.2,
        };
        let t = thw.0.max(kt.saturating_sub(2 * pad.0));
        let h = thw.1.max(kh.saturating_sub(2 * pad.1));
        let w = thw.2.max(kw.saturating_sub(2 * pad.2));
        let mut rng = Rng64::new(s);
        let input = Tensor::randn(&[chans, t, h, w], 1.0, rng.as_rng());
        let cols_t = im2col3d(&input, &spec).unwrap().transpose().unwrap();
        let g = Tensor::randn(&[m, cols_t.dims()[0]], 1.0, rng.as_rng());
        let want = reference(&g, &cols_t);
        let mut lowered = Tensor::full(want.dims(), f32::NAN);
        gemm_im2col3d_t(&g, &input, &spec, &mut lowered).unwrap();
        prop_assert_eq!(bits(&want), bits(&lowered), "[{chans},{t},{h},{w}] m{m} {spec:?}");
    }

    fn packed_conv3d_is_bitwise_reference(
        oc in 1usize..6,
        thw in (3usize..7, 3usize..7, 3usize..7),
        ck in (1usize..3, 1usize..4),
        s in seed(),
    ) {
        let (t, h, w) = thw;
        let (chans, kern) = ck;
        let spec = Conv3dSpec::cubic(chans, kern, (1, 1, 1), 1);
        let mut rng = Rng64::new(s);
        let input = Tensor::randn(&[chans, t, h, w], 1.0, rng.as_rng());
        let (ot, oh, ow) = spec.output_thw(t, h, w).unwrap();
        let rows = chans * kern * kern * kern;
        let cols = ot * oh * ow;
        let weight = Tensor::randn(&[oc, rows], 1.0, rng.as_rng());

        // Oracle conv3d: the materialized lowering, reference GEMM.
        let want = reference(&weight, &im2col3d(&input, &spec).unwrap());

        // Inference conv3d: the input lowered one packed B strip at a time.
        let mut out = Tensor::full(&[oc, cols], f32::NAN);
        gemm_im2col3d(&weight, &input, &spec, &mut out).unwrap();
        prop_assert_eq!(
            bits(&want),
            bits(&out),
            "conv3d [{chans},{t},{h},{w}] k{kern} oc{oc} drifted"
        );
    }
}

/// The per-frame (`kt = 1`) convolution the ResNet backbones build:
/// spatial stride `s`, padding `k / 2`.
fn per_frame(c: usize, k: usize, s: usize) -> Conv3dSpec {
    Conv3dSpec { in_channels: c, kt: 1, kh: k, kw: k, st: 1, sh: s, sw: s, pt: 0, ph: k / 2, pw: k / 2 }
}

/// `(spec, input [C, T, H, W], out_c)` of every `Conv3d` the six
/// backbones build for a `t × h × w` clip at base width `w0`
/// (`duo-models`' `Backbone::new`): C3D, I3D after its spatial max pool,
/// TPN's shared trunk and its `kt = 2`, `pt = 0` branch at temporal
/// rates 1, 2 and 4, SlowFast's slow pathway (every 4th frame) and fast
/// pathway, and ResNet's `kt = 1` stem, blocks, projection and 1×1
/// stride-2 shortcut.
fn backbone_convs(t: usize, h: usize, w: usize, w0: usize) -> Vec<(Conv3dSpec, [usize; 4], usize)> {
    let tpn_branch = Conv3dSpec { in_channels: 2 * w0, kt: 2, kh: 3, kw: 3, st: 1, sh: 1, sw: 1, pt: 0, ph: 1, pw: 1 };
    vec![
        // C3D (its first layer is also I3D's, TPN's and the fast pathway's).
        (Conv3dSpec::cubic(3, 3, (1, 2, 2), 1), [3, t, h, w], w0),
        (Conv3dSpec::cubic(w0, 3, (2, 2, 2), 1), [w0, t, h / 2, w / 2], 2 * w0),
        (Conv3dSpec::cubic(2 * w0, 3, (2, 2, 2), 1), [2 * w0, t / 2, h / 4, w / 4], 4 * w0),
        // I3D.
        (Conv3dSpec::cubic(w0, 3, (1, 1, 1), 1), [w0, t, h / 4, w / 4], 2 * w0),
        (Conv3dSpec::cubic(2 * w0, 3, (1, 1, 1), 1), [2 * w0, t, h / 4, w / 4], 2 * w0),
        (Conv3dSpec::cubic(2 * w0, 3, (2, 2, 2), 1), [2 * w0, t, h / 4, w / 4], 4 * w0),
        // TPN.
        (Conv3dSpec::cubic(w0, 3, (1, 2, 2), 1), [w0, t, h / 2, w / 2], 2 * w0),
        (tpn_branch, [2 * w0, t, h / 4, w / 4], w0),
        (tpn_branch, [2 * w0, t / 2, h / 4, w / 4], w0),
        (tpn_branch, [2 * w0, t / 4, h / 4, w / 4], w0),
        // SlowFast.
        (Conv3dSpec::cubic(3, 3, (1, 2, 2), 1), [3, t / 4, h, w], 2 * w0),
        (Conv3dSpec::cubic(2 * w0, 3, (1, 2, 2), 1), [2 * w0, t / 4, h / 2, w / 2], 4 * w0),
        (Conv3dSpec::cubic(w0, 3, (2, 2, 2), 1), [w0, t, h / 2, w / 2], w0),
        // ResNet-18/34.
        (per_frame(3, 3, 2), [3, t, h, w], w0),
        (per_frame(w0, 3, 1), [w0, t, h / 2, w / 2], w0),
        (per_frame(w0, 3, 2), [w0, t, h / 2, w / 2], 2 * w0),
        (per_frame(2 * w0, 3, 1), [2 * w0, t, h / 4, w / 4], 2 * w0),
        (per_frame(w0, 1, 2), [w0, t, h / 2, w / 2], 2 * w0),
    ]
}

/// Every convolution geometry the six backbones build at
/// `ClipSpec::tiny()` (8 × 16 × 16, width 4) and
/// `ClipSpec::experiment()` (16 × 32 × 32, width 8), plus output widths
/// 1, 3, 4, 8, 16, 31 and 33 at unit and stride-2 width, so that runs end
/// inside a 32-column strip, cross into the next one, and are wider than
/// one: the forward and the weight gradient must equal the oracle
/// against the materialized lowering bit for bit.
#[test]
fn backbone_convolutions_are_bitwise_the_materialized_lowering() {
    let mut shapes = backbone_convs(8, 16, 16, 4);
    shapes.extend(backbone_convs(16, 32, 32, 8));
    for ow in [1, 3, 4, 8, 16, 31, 33] {
        shapes.push((Conv3dSpec::cubic(2, 3, (1, 1, 1), 1), [2, 2, 3, ow], 5));
        shapes.push((Conv3dSpec::cubic(2, 3, (1, 2, 2), 1), [2, 2, 4, 2 * ow], 9));
    }
    let mut rng = Rng64::new(0xc0_5ba5e);
    for (spec, dims, oc) in shapes {
        let input = Tensor::randn(&dims, 1.0, rng.as_rng());
        let cols = im2col3d(&input, &spec).unwrap();
        let (k, n) = (cols.dims()[0], cols.dims()[1]);
        let weight = Tensor::randn(&[oc, k], 1.0, rng.as_rng());
        let mut fused = Tensor::full(&[oc, n], f32::NAN);
        gemm_im2col3d(&weight, &input, &spec, &mut fused).unwrap();
        assert_eq!(bits(&reference(&weight, &cols)), bits(&fused), "forward {dims:?} oc{oc} {spec:?}");

        let g = Tensor::randn(&[oc, n], 1.0, rng.as_rng());
        let mut lowered = Tensor::full(&[oc, k], f32::NAN);
        gemm_im2col3d_t(&g, &input, &spec, &mut lowered).unwrap();
        let want = reference(&g, &cols.transpose().unwrap());
        assert_eq!(bits(&want), bits(&lowered), "weight gradient {dims:?} oc{oc} {spec:?}");
    }
}

/// Fixed shapes that straddle the kernels' tiles (`MR8 = 8`, `MR = 4`,
/// `NR = 16`, `NR2 = 32`) and reach deep and wide: depths past 256 and
/// 512, a width past 1024, exact multiples, and a product smaller than
/// one tile.
#[test]
fn panel_boundary_shapes_are_bitwise_serial() {
    let mut rng = Rng64::new(0xb10c);
    for &(m, k, n) in &[
        (13usize, 259usize, 60usize), // deep, odd everything
        (5, 513, 48),                 // deeper still, tail rows only
        (9, 40, 1030),                // 32 full strips + a 6-wide strip
        (64, 256, 64),                // exact block/strip multiples
        (3, 17, 15),                  // below one NR tile, m < MR
    ] {
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut packed = Tensor::full(&[m, n], f32::NAN);
        matmul_into(&a, &b, &mut packed).unwrap();
        assert_eq!(bits(&reference(&a, &b)), bits(&packed), "({m},{k},{n}) drifted");
    }
}

/// Every row-remainder class of the 8-row packed kernel at a depth past
/// 256: the packed path sweeps full depth in one register pass per
/// block. `m ∈ {1, 4, 7}` never fills a block (pure `micro_4`/`micro_1`
/// tail), `{8, 16}` are exact blocks, `{9, 15, 17}` mix full blocks with
/// every tail size class.
#[test]
fn eight_row_block_boundaries_are_bitwise_serial() {
    let mut rng = Rng64::new(0x8b10c);
    for &m in &[1usize, 4, 7, 8, 9, 15, 16, 17] {
        for &(k, n) in &[(259usize, 37usize), (300, 64)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let mut packed = Tensor::full(&[m, n], f32::NAN);
            matmul_into(&a, &b, &mut packed).unwrap();
            assert_eq!(bits(&reference(&a, &b)), bits(&packed), "({m},{k},{n}) drifted");
        }
    }
}

/// Four threads, released together, multiply at once, each over its own
/// mix of shapes. The workspace bin is the only state they share, so a
/// buffer handed out with stale contents, or to two callers at once,
/// shows as a bit that differs from the oracle.
#[test]
fn concurrent_callers_are_bitwise_reference() {
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                let mut rng = Rng64::new(0xc0c0 + t);
                for call in 0..300 {
                    let m = 1 + rng.below(40);
                    let k = 1 + rng.below(48);
                    let n = 1 + rng.below(70);
                    let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
                    let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
                    let want = bits(&reference(&a, &b));
                    let mut out = Tensor::full(&[m, n], f32::NAN);
                    if call % 2 == 0 {
                        matmul_into(&a, &b, &mut out).unwrap();
                    } else {
                        // The unit 1×1×1 convolution's lowering is the
                        // identity reshape of `b`.
                        let clip = b.reshape(&[k, 1, 1, n]).unwrap();
                        let unit = Conv3dSpec::cubic(k, 1, (1, 1, 1), 0);
                        gemm_im2col3d(&a, &clip, &unit, &mut out).unwrap();
                    }
                    assert_eq!(want, bits(&out), "thread {t} call {call} ({m},{k},{n})");
                }
            });
        }
    });
}

/// The committed kernel regression seeds must replay *before* fresh
/// generation: running the property with zero fresh cases must evaluate
/// exactly the values those seeds regenerate, in file order.
#[test]
fn committed_regression_seeds_replay_before_fresh_generation() {
    let text = std::fs::read_to_string(REGRESSIONS).unwrap();
    let committed: Vec<u64> = duo_check::parse_regressions(&text)
        .into_iter()
        .filter(|(name, _)| name == "packed_matmul_is_bitwise_reference")
        .map(|(_, s)| s)
        .collect();
    assert!(
        !committed.is_empty(),
        "tests/properties.regressions must carry the GEMM kernel seeds"
    );
    assert!(
        duo_check::parse_regressions(&text)
            .iter()
            .any(|(name, _)| name == "packed_lowering_is_bitwise_im2col_gemm"),
        "tests/properties.regressions must carry a seed for packed_lowering_is_bitwise_im2col_gemm"
    );

    let strategy = (dim(), dim(), dim(), seed());
    let observed = std::cell::RefCell::new(Vec::new());
    let cfg = Config::default().with_cases(0).with_regressions(REGRESSIONS);
    let outcome = duo_check::run_property_result(
        "packed_matmul_is_bitwise_reference",
        &cfg,
        &strategy,
        |value| {
            observed.borrow_mut().push(*value);
            Ok(())
        },
    );
    assert!(outcome.is_ok(), "recorder property cannot fail");

    let expected: Vec<(usize, usize, usize, u64)> = committed
        .iter()
        .map(|&s| strategy.generate(&mut Rng64::new(s)))
        .collect();
    assert_eq!(
        *observed.borrow(),
        expected,
        "replayed cases must come first and regenerate the committed seeds exactly"
    );
}
