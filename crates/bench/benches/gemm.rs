//! GEMM kernel benchmarks: the blocked/threaded kernels against the seed
//! naive kernel (`matmul_into_reference`).
//!
//! For each shape the bench times:
//!
//! * `reference` — the seed's streaming i·k·j kernel, the baseline every
//!   speedup in `BENCH_gemm.json` and the README table is quoted against;
//! * `serial_blocked` — the cache-blocked micro-kernel on the calling
//!   thread (`matmul_into_serial`);
//! * `threadsN` — the packed-A 8×16 kernel dispatched over an explicit
//!   `ThreadPool` of N workers via the job rings (`matmul_into_with`,
//!   caller computes the first stripe inline), N ∈ {1, 2, 4, 8};
//! * `fused_bias` — `gemm_bias`, the tiered entry point that folds the
//!   bias add into the micro-kernel's final store instead of a second
//!   pass over the output.
//!
//! Before timing, **every** configuration's output — reference, serial,
//! each thread count, and the fused-bias path against a serial
//! gemm-then-bias-sweep — is asserted bit-identical, so the determinism
//! contract is enforced in the bench itself, not just the test suite.
//!
//! Noise control: 3 warmup iterations per entry (the first calls fault in
//! the packing workspaces and let the allocator settle) and enough
//! samples that the recorded `trimmed_mean_s` (drop the fastest and
//! slowest fifth, mean the middle) is stable against the bimodal
//! allocator behaviour the serial kernel shows on large shapes. That
//! trimmed mean is what `bench_check` compares against the committed
//! rules in `BENCH_thresholds.txt`.
//!
//! Results land in `BENCH_gemm.json` at the repo root; `DUO_SCALE=smoke`
//! shrinks shapes and samples for the verify gate and writes under
//! `target/bench-smoke/` instead. On a single-core host the `threadsN`
//! rows measure kernel quality plus
//! dispatch overhead, not parallel scaling — they beat `serial_blocked`
//! because the packed kernel is wider and reuses the packed panels, and
//! the ring dispatch stays cheap enough not to give that margin back.

use duo_bench::Runner;
use duo_tensor::{
    gemm_bias, matmul_into_reference, matmul_into_serial, matmul_into_with, Rng64, Tensor,
    ThreadPool,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var("DUO_SCALE").as_deref() == Ok("smoke")
}

/// Benched shapes `(m, k, n)`. The 256³ GEMM is the headline size; the
/// skinny 128×1024×512 shape is where panel packing pays most (k spans
/// four KC panels); 512³ stresses the full blocking hierarchy.
fn sizes() -> Vec<(usize, usize, usize)> {
    if smoke() {
        vec![(48, 64, 48), (96, 160, 80)]
    } else {
        vec![(256, 256, 256), (128, 1024, 512), (512, 512, 512)]
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let mut runner = Runner::default()
        .sample_size(if smoke() { 7 } else { 25 })
        .warmup_iters(3);
    runner.apply_cli_args();

    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let mut rng = Rng64::new(0x6E44 ^ ((m * 1_000_003 + k * 1_009 + n) as u64));
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());

        let mut serial = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut serial).unwrap();
        let want = bits(&serial);

        let mut out = Tensor::full(&[m, n], f32::NAN);
        matmul_into_reference(&a, &b, &mut out).unwrap();
        assert_eq!(want, bits(&out), "gemm/{tag} reference drifted from serial");
        runner.bench_function(&format!("gemm/{tag}/reference"), |bench| {
            bench.iter(|| matmul_into_reference(&a, &b, &mut out).unwrap())
        });

        out.as_mut_slice().fill(f32::NAN);
        matmul_into_serial(&a, &b, &mut out).unwrap();
        assert_eq!(want, bits(&out), "gemm/{tag} serial rerun drifted");
        runner.bench_function(&format!("gemm/{tag}/serial_blocked"), |bench| {
            bench.iter(|| matmul_into_serial(&a, &b, &mut out).unwrap())
        });

        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            out.as_mut_slice().fill(f32::NAN);
            matmul_into_with(&a, &b, &mut out, &pool).unwrap();
            assert_eq!(want, bits(&out), "gemm/{tag} drifted at {threads} threads");
            runner.bench_function(&format!("gemm/{tag}/threads{threads}"), |bench| {
                bench.iter(|| matmul_into_with(&a, &b, &mut out, &pool).unwrap())
            });
        }

        // Fused bias: identical bits to the unfused serial result with a
        // second bias pass on top.
        let want_bias: Vec<u32> = {
            let mut unfused = serial.clone();
            for row in unfused.as_mut_slice().chunks_exact_mut(n) {
                for (o, bv) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bv;
                }
            }
            bits(&unfused)
        };
        out.as_mut_slice().fill(f32::NAN);
        gemm_bias(&a, &b, &bias, &mut out).unwrap();
        assert_eq!(want_bias, bits(&out), "gemm/{tag} fused bias drifted from gemm+sweep");
        runner.bench_function(&format!("gemm/{tag}/fused_bias"), |bench| {
            bench.iter(|| gemm_bias(&a, &b, &bias, &mut out).unwrap())
        });
    }

    // Speedup table vs the seed kernel, from the recorded trimmed means.
    let results = runner.results().to_vec();
    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let stat = |suffix: &str| {
            results
                .iter()
                .find(|r| r.name == format!("gemm/{tag}/{suffix}"))
                .map(|r| r.trimmed_mean_s)
        };
        let Some(base) = stat("reference") else { continue };
        let mut row = format!("gemm/{tag} speedup vs reference:");
        for suffix in
            ["serial_blocked", "threads1", "threads2", "threads4", "threads8", "fused_bias"]
        {
            if let Some(t) = stat(suffix) {
                row.push_str(&format!(" {suffix} {:.2}x", base / t));
            }
        }
        println!("{row}");
    }

    let path = duo_bench::repo_root_bench_path("gemm");
    duo_bench::write_bench_json(&path, &results).expect("write BENCH_gemm.json");
    println!("wrote {}", path.display());
    runner.finish();
}
