//! Runs the attacker zoo against duo-serve with the streaming blue-team
//! stage armed: an undefended baseline fleet, two byte-identical
//! defended runs with a benign control lane (written to
//! BENCH_defense.json), and a fault-injected accounting phase (set
//! DUO_SCALE=smoke for a fast pass, which writes under
//! target/bench-smoke/).

fn main() {
    let scale = duo_experiments::Scale::from_env();
    if let Err(e) = duo_experiments::runs::red_vs_blue::run(scale) {
        eprintln!("red_vs_blue failed: {e}");
        std::process::exit(1);
    }
}
