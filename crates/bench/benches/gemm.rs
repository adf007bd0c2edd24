//! GEMM kernel benchmark: the packed kernel against the oracle
//! (`matmul_into_reference`).
//!
//! For each shape the bench times two entries:
//!
//! * `reference` — the seed's streaming i·k·j kernel, the oracle every
//!   path is tested against and the baseline every speedup in
//!   `BENCH_gemm.json` and the README table is quoted against;
//! * `packed` — `matmul_into`, the one GEMM path: both operands packed
//!   once, the 8-row micro-kernel swept over 32-column B strips on the
//!   calling thread.
//!
//! Before timing, the packed output is asserted bit-identical to the
//! reference, so the determinism contract is enforced in the bench
//! itself, not just the test suite. The two entries are sampled
//! interleaved (`Runner::bench_interleaved`), so drift in the host's
//! speed lands on both alike, and each sample times a warm second call.
//!
//! Noise control: 3 warmup rounds (the first calls fault in the packing
//! workspaces and let the allocator settle) and 25 samples per entry at
//! both scales. The recorded `trimmed_mean_s` (drop the fastest and
//! slowest fifth, mean the middle) is what `bench_check` compares against
//! the `packed <= F * reference` rules in `BENCH_thresholds.txt`; each
//! `F` sits between the packed kernel's ratio and the 4-row kernel's it
//! replaced, so the rule trips if the 8-row kernel is quietly swapped
//! out.
//!
//! The convolution weight gradient is timed the same way, at both
//! scales, on C3D conv1 at experiment geometry (a [3, 16, 32, 32] clip,
//! 3×3×3 kernel, stride (1, 2, 2), pad 1, 8 output channels: an
//! 8 × 4096 output gradient against the 81 × 4096 lowering):
//!
//! * `wgrad_conv1/lowered` — `gemm_im2col3d_t`, each column-matrix row
//!   lowered straight into the packed strips of the transposed operand;
//! * `wgrad_conv1/materialized` — the path it replaced and the best
//!   alternative that builds the matrix: `im2col3d`, `transpose`, then
//!   `matmul_into`.
//!
//! Their outputs are asserted bit-identical before timing, and the rule
//! `lowered <= F * materialized` sits between the two paths' ratios.
//!
//! Results land in `BENCH_gemm.json` at the repo root; `DUO_SCALE=smoke`
//! shrinks the GEMM shapes for the verify gate and writes under
//! `target/bench-smoke/` instead, and a name-filtered run writes under
//! `target/bench-filtered/` (`Runner::artifact_path`).

use duo_bench::Runner;
use duo_tensor::{
    gemm_im2col3d_t, im2col3d, matmul_into, matmul_into_reference, Conv3dSpec, Rng64, Tensor,
};
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("DUO_SCALE").as_deref() == Ok("smoke")
}

/// Benched shapes `(m, k, n)`. The 256³ GEMM is the headline size; the
/// skinny 128×1024×512 shape streams the deepest strips; 512³ is the
/// largest. The smoke shapes are large enough that the 8-row kernel
/// clearly beats the 4-row kernel it replaced (at 48×64×48 and 96×160×80
/// the two read alike), so the smoke rules can tell the two apart.
fn sizes() -> Vec<(usize, usize, usize)> {
    if smoke() {
        vec![(128, 128, 128), (192, 192, 192)]
    } else {
        vec![(256, 256, 256), (128, 1024, 512), (512, 512, 512)]
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let mut runner = Runner::default().sample_size(25).warmup_iters(3);
    runner.apply_cli_args();

    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let mut rng = Rng64::new(0x6E44 ^ ((m * 1_000_003 + k * 1_009 + n) as u64));
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());

        let mut want = Tensor::full(&[m, n], f32::NAN);
        matmul_into_reference(&a, &b, &mut want).unwrap();
        let mut out = Tensor::full(&[m, n], f32::NAN);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(bits(&want), bits(&out), "gemm/{tag} packed drifted from the reference");

        let names = [format!("gemm/{tag}/reference"), format!("gemm/{tag}/packed")];
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        // Each sample runs its entry once untimed, then times a second
        // call: a sample right after the other entry would otherwise pay
        // for the caches that entry just evicted.
        let mut run = |entry: usize| {
            let (a, b) = (black_box(&a), black_box(&b));
            if entry == 0 {
                matmul_into_reference(a, b, &mut out).unwrap();
            } else {
                matmul_into(a, b, &mut out).unwrap();
            }
            black_box(&mut out);
        };
        runner.bench_interleaved(&names, |entry| {
            run(entry);
            let start = Instant::now();
            run(entry);
            start.elapsed().as_secs_f64()
        });
    }

    bench_conv1_weight_gradient(&mut runner);

    // Speedup vs the seed kernel, from the recorded trimmed means.
    let results = runner.results().to_vec();
    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let stat = |suffix: &str| {
            results
                .iter()
                .find(|r| r.name == format!("gemm/{tag}/{suffix}"))
                .map(|r| r.trimmed_mean_s)
        };
        if let (Some(base), Some(packed)) = (stat("reference"), stat("packed")) {
            println!(
                "gemm/{tag}: packed {:.2}x vs reference (ratio {:.3})",
                base / packed,
                packed / base
            );
        }
    }

    let path = runner.artifact_path("gemm");
    duo_bench::write_bench_json(&path, &results).expect("write BENCH_gemm.json");
    println!("wrote {}", path.display());
    runner.finish();
}

/// C3D conv1's weight gradient `g · im2col3d(x)ᵀ`, lowered against
/// materialized, sampled interleaved like the GEMM shapes.
fn bench_conv1_weight_gradient(runner: &mut Runner) {
    let spec = Conv3dSpec::cubic(3, 3, (1, 2, 2), 1);
    let mut rng = Rng64::new(0xC3D1);
    let x = Tensor::randn(&[3, 16, 32, 32], 1.0, rng.as_rng());
    let g = Tensor::randn(&[8, 16 * 16 * 16], 1.0, rng.as_rng());
    let materialized = |g: &Tensor, x: &Tensor, out: &mut Tensor| {
        let cols_t = im2col3d(x, &spec).unwrap().transpose().unwrap();
        matmul_into(g, &cols_t, out).unwrap();
    };

    let mut want = Tensor::full(&[8, 81], f32::NAN);
    materialized(&g, &x, &mut want);
    let mut out = Tensor::full(&[8, 81], f32::NAN);
    gemm_im2col3d_t(&g, &x, &spec, &mut out).unwrap();
    assert_eq!(bits(&want), bits(&out), "gemm/wgrad_conv1 lowered drifted from materialized");

    let names = ["gemm/wgrad_conv1/lowered", "gemm/wgrad_conv1/materialized"];
    let mut run = |entry: usize| {
        let (g, x) = (black_box(&g), black_box(&x));
        if entry == 0 {
            gemm_im2col3d_t(g, x, &spec, &mut out).unwrap();
        } else {
            materialized(g, x, &mut out);
        }
        black_box(&mut out);
    };
    runner.bench_interleaved(&names, |entry| {
        run(entry);
        let start = Instant::now();
        run(entry);
        start.elapsed().as_secs_f64()
    });
    let stat = |name: &str| {
        runner.results().iter().find(|r| r.name == name).map(|r| r.trimmed_mean_s)
    };
    if let (Some(lowered), Some(materialized)) = (stat(names[0]), stat(names[1])) {
        println!("gemm/wgrad_conv1: lowered/materialized ratio {:.3}", lowered / materialized);
    }
}
