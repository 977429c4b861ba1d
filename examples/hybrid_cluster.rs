//! The cluster-of-SMPs story: run AMR under all four models on the stock
//! Origin2000 and on a simulated cluster of SMP nodes, and watch the
//! ranking rearrange — the experiment that motivated the paper's follow-up
//! work on hybrid programming.
//!
//! ```text
//! cargo run --release --example hybrid_cluster
//! ```

use std::sync::Arc;

use origin2k::machine::{Machine, MachineConfig};
use origin2k::prelude::*;

fn main() {
    let amr = AmrConfig {
        nx: 24,
        ny: 24,
        steps: 4,
        sweeps: 4,
        ..AmrConfig::default()
    };
    let nb = NBodyConfig::small();
    let p = 16;

    for (label, cfg) in [
        (
            "SGI Origin2000 (hardware ccNUMA)",
            MachineConfig::origin2000(),
        ),
        (
            "cluster of SMPs (commodity network)",
            MachineConfig::cluster_of_smps(),
        ),
    ] {
        println!("=== {label}, P = {p} ===");
        println!(
            "{:<10} {:>12} {:>9} {:>9} {:>11} {:>9}",
            "model", "sim time ms", "busy%", "remote%", "msgs sent", "rem misses"
        );
        let machine = Arc::new(Machine::new(p, cfg));
        let mut times = Vec::new();
        for model in Model::WITH_HYBRID {
            let r = run_app_opts(
                Arc::clone(&machine),
                App::Amr,
                model,
                &nb,
                &amr,
                RunOpts::default(),
            );
            let (b, _, rm, _) = r.breakdown().fractions();
            println!(
                "{:<10} {:>12.2} {:>8.1}% {:>8.1}% {:>11} {:>9}",
                model.name(),
                r.sim_time as f64 / 1e6,
                b * 100.0,
                rm * 100.0,
                r.counters.msgs_sent,
                r.counters.misses_remote
            );
            times.push((model.name(), r.sim_time));
        }
        let winner = times.iter().min_by_key(|(_, t)| *t).expect("ran models");
        println!("--> fastest: {}\n", winner.0);
    }
    println!("On hardware ccNUMA the shared address space wins; take the coherent");
    println!("network away and the hybrid's batched node-to-node messages pay off.");
}
