//! Drives the full attacker zoo — DUO, Vanilla, TIMI, HEU-Nes, HEU-Sim,
//! the sparse RL agent, and the zero-query feature-map attack — as a
//! fleet of concurrent metered clients against duo-serve, asserts exact
//! fleet-wide budget accounting and bit-identical seeded replay, and
//! writes the leaderboard to BENCH_campaign.json (set DUO_SCALE=smoke
//! for a fast pass, which writes under target/bench-smoke/).

fn main() {
    let scale = duo_experiments::Scale::from_env();
    if let Err(e) = duo_experiments::runs::campaign::run(scale) {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    }
}
