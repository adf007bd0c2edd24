//! Bit-identity property suite for the parallel compute core.
//!
//! The PR 5 determinism contract: the threaded, cache-blocked kernels
//! (`matmul_into_with`, and the convolution forward `gemm_im2col3d_with`)
//! produce outputs equal to the serial kernels at `f32::to_bits`
//! granularity for every shape and every thread count — workers own
//! disjoint output rows and run the identical per-element float program,
//! so partitioning can never move a bit. Thread counts {1, 2, 3, 8}
//! cover the degenerate pool, non-divisible row splits, and
//! oversubscription; the generated shapes land on every `MR`/`NR` tile
//! remainder class.
//!
//! The wide-kernel rework extends the wall: the fused-bias entry points
//! (`gemm_bias`, `gemm_bias_with`) must equal a GEMM followed by a bias
//! loop, a `PackedA` reused across right operands must equal packing
//! fresh, and every 8-row block remainder class must survive the packed
//! kernel's full-depth store schedule. The convolution forward lowers its
//! input straight into the packed B strips; over strides, pads, kernel
//! extents and output widths it must equal `matmul_into` against the
//! materialized `im2col3d` matrix.
//!
//! Failing case seeds persist to `tests/properties.regressions` and
//! replay before fresh generation (asserted at the bottom of this file).

use duo_check::{check, prop_assert_eq, Config, Strategy};
use duo_tensor::{
    gemm_bias, gemm_bias_with, gemm_im2col3d, gemm_im2col3d_with, im2col3d, matmul_into,
    matmul_into_serial, matmul_into_with, Conv3dSpec, PackedA, Rng64, Tensor, ThreadPool,
};
use std::ops::Range;

/// Thread counts every property sweeps: serial shortcut, uneven splits,
/// and oversubscription past any sane core count for the tiny shapes.
const THREADS: [usize; 4] = [1, 2, 3, 8];

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

check! {
    #![config(config())]

    fn threaded_matmul_is_bitwise_serial(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut serial = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut serial).unwrap();
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::zeros(&[m, n]);
            matmul_into_with(&a, &b, &mut par, &pool).unwrap();
            prop_assert_eq!(
                bits(&serial),
                bits(&par),
                "({m},{k},{n}) drifted at {threads} threads"
            );
        }
    }

    fn fused_bias_gemm_is_bitwise_unfused(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
        // Unfused reference: serial GEMM, then a bias sweep adding
        // `bias[j]` onto each finished element — bias last, exactly the
        // contract's float program.
        let mut reference = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut reference).unwrap();
        let bv = bias.as_slice().to_vec();
        for row in reference.as_mut_slice().chunks_exact_mut(n) {
            for (o, bval) in row.iter_mut().zip(&bv) {
                *o += bval;
            }
        }
        let mut fused = Tensor::full(&[m, n], f32::NAN);
        gemm_bias(&a, &b, &bias, &mut fused).unwrap();
        prop_assert_eq!(
            bits(&reference),
            bits(&fused),
            "({m},{k},{n}) fused bias drifted from gemm + bias loop"
        );
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::full(&[m, n], f32::NAN);
            gemm_bias_with(&a, &b, &bias, &mut par, &pool).unwrap();
            prop_assert_eq!(
                bits(&reference),
                bits(&par),
                "({m},{k},{n}) fused bias drifted at {threads} threads"
            );
        }
    }

    fn packed_a_reuse_is_bitwise_fresh(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b1 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let b2 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let packed = PackedA::pack(&a).unwrap();
        // One packing, two right operands — the reuse pattern of
        // `Conv3d::infer_batch` — must match the fresh serial kernel on
        // both products. A `[k, n]` operand is a `[k, 1, 1, n]` clip under
        // a unit 1×1×1 kernel, whose lowering is the identity reshape, so
        // the convolution forward keeps this property's GEMM shapes.
        let unit = Conv3dSpec::cubic(k, 1, (1, 1, 1), 0);
        for bmat in [&b1, &b2] {
            let mut serial = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, bmat, &mut serial).unwrap();
            let clip = bmat.reshape(&[k, 1, 1, n]).unwrap();
            let mut reused = Tensor::full(&[m, n], f32::NAN);
            gemm_im2col3d(&packed, &clip, &unit, &mut reused).unwrap();
            prop_assert_eq!(
                bits(&serial),
                bits(&reused),
                "({m},{k},{n}) packed-A reuse drifted from the serial kernel"
            );
        }
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
        let mut want = Tensor::zeros(&[oc, cols.dims()[1]]);
        matmul_into(&weight, &cols, &mut want).unwrap();
        let packed = PackedA::pack(&weight).unwrap();
        let mut fused = Tensor::full(want.dims(), f32::NAN);
        gemm_im2col3d(&packed, &input, &spec, &mut fused).unwrap();
        prop_assert_eq!(bits(&want), bits(&fused), "[{chans},{t},{h},{w}] oc{oc} {spec:?}");
        let pool = ThreadPool::new(2);
        let mut par = Tensor::full(want.dims(), f32::NAN);
        gemm_im2col3d_with(&packed, &input, &spec, &mut par, &pool).unwrap();
        prop_assert_eq!(
            bits(&want),
            bits(&par),
            "[{chans},{t},{h},{w}] oc{oc} {spec:?} drifted on 2 workers"
        );
    }

    fn threaded_conv3d_is_bitwise_serial(
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

        // Serial conv3d: the materialized lowering, serial GEMM.
        let mut out_serial = Tensor::zeros(&[oc, cols]);
        matmul_into_serial(&weight, &im2col3d(&input, &spec).unwrap(), &mut out_serial).unwrap();

        // Threaded conv3d: the lowering packed straight into B strips,
        // rows striped across the pool.
        let packed = PackedA::pack(&weight).unwrap();
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut out_par = Tensor::full(&[oc, cols], f32::NAN);
            gemm_im2col3d_with(&packed, &input, &spec, &mut out_par, &pool).unwrap();
            prop_assert_eq!(
                bits(&out_serial),
                bits(&out_par),
                "conv3d [{chans},{t},{h},{w}] k{kern} oc{oc} drifted at {threads} threads"
            );
        }
    }
}

/// Fixed shapes that straddle the blocking constants (`KC = 256`,
/// `NC = 1024`, `MR = 4`, `NR = 16`): multi-panel k, multi-panel n, and
/// dimensions one off every tile multiple.
#[test]
fn panel_boundary_shapes_are_bitwise_serial() {
    let mut rng = Rng64::new(0xb10c);
    for &(m, k, n) in &[
        (13usize, 259usize, 60usize), // k crosses one KC boundary, odd everything
        (5, 513, 48),                 // k spans three KC panels
        (9, 40, 1030),                // n crosses the NC panel boundary
        (64, 256, 64),                // exact tile/panel multiples
        (3, 17, 15),                  // below one NR tile, m < MR
    ] {
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut serial = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut serial).unwrap();
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::zeros(&[m, n]);
            matmul_into_with(&a, &b, &mut par, &pool).unwrap();
            assert_eq!(
                serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n}) drifted at {threads} threads"
            );
        }
    }
}

/// Every row-remainder class of the 8-row packed kernel, with the depth
/// crossing the legacy `KC = 256` panel boundary: the packed path sweeps
/// full depth in one register pass while the serial reference re-panels
/// at `KC`, so these shapes prove the store-schedule difference never
/// moves a bit. `m ∈ {1, 4, 7}` never fills a block (pure
/// `micro_4`/`micro_1` tail), `{8, 16}` are exact blocks, `{9, 15, 17}`
/// mix full blocks with every tail size class.
#[test]
fn eight_row_block_boundaries_are_bitwise_serial() {
    let mut rng = Rng64::new(0x8b10c);
    for &m in &[1usize, 4, 7, 8, 9, 15, 16, 17] {
        for &(k, n) in &[(259usize, 37usize), (300, 64)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
            let mut serial = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, &b, &mut serial).unwrap();
            let mut expected_bias = serial.clone();
            for row in expected_bias.as_mut_slice().chunks_exact_mut(n) {
                for (o, bval) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bval;
                }
            }
            for &threads in &THREADS {
                let pool = ThreadPool::new(threads);
                let mut par = Tensor::full(&[m, n], f32::NAN);
                matmul_into_with(&a, &b, &mut par, &pool).unwrap();
                assert_eq!(
                    bits(&serial),
                    bits(&par),
                    "({m},{k},{n}) drifted at {threads} threads"
                );
                let mut fused = Tensor::full(&[m, n], f32::NAN);
                gemm_bias_with(&a, &b, &bias, &mut fused, &pool).unwrap();
                assert_eq!(
                    bits(&expected_bias),
                    bits(&fused),
                    "({m},{k},{n}) fused bias drifted at {threads} threads"
                );
            }
        }
    }
}

/// The committed kernel regression seeds must replay *before* fresh
/// generation: running the property with zero fresh cases must evaluate
/// exactly the values those seeds regenerate, in file order.
#[test]
fn committed_regression_seeds_replay_before_fresh_generation() {
    let text = std::fs::read_to_string(REGRESSIONS).unwrap();
    let committed: Vec<u64> = duo_check::parse_regressions(&text)
        .into_iter()
        .filter(|(name, _)| name == "threaded_matmul_is_bitwise_serial")
        .map(|(_, s)| s)
        .collect();
    assert!(
        !committed.is_empty(),
        "tests/properties.regressions must carry the PR 5 kernel seeds"
    );
    for required in ["packed_lowering_is_bitwise_im2col_gemm", "fused_bias_gemm_is_bitwise_unfused"] {
        assert!(
            duo_check::parse_regressions(&text).iter().any(|(name, _)| name == required),
            "tests/properties.regressions must carry a seed for {required}"
        );
    }

    let strategy = (dim(), dim(), dim(), seed());
    let observed = std::cell::RefCell::new(Vec::new());
    let cfg = Config::default().with_cases(0).with_regressions(REGRESSIONS);
    let outcome = duo_check::run_property_result(
        "threaded_matmul_is_bitwise_serial",
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
