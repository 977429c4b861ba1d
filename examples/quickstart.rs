//! Quickstart: run both adaptive applications under all three programming
//! models on a 8-PE simulated Origin2000 and print the comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use origin2k::prelude::*;

fn main() {
    let nbody_cfg = NBodyConfig {
        n: 1024,
        steps: 2,
        ..NBodyConfig::default()
    };
    let amr_cfg = AmrConfig {
        nx: 20,
        ny: 20,
        steps: 3,
        sweeps: 3,
        ..AmrConfig::default()
    };
    let pes = 8;

    println!("origin2k quickstart — {pes} simulated PEs (Origin2000 preset)\n");
    println!(
        "{:<8} {:<8} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "app", "model", "sim time ms", "busy%", "local%", "remote%", "sync%"
    );
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let machine = Machine::origin2000(pes);
            let r = run_app_opts(
                machine,
                app,
                model,
                &nbody_cfg,
                &amr_cfg,
                RunOpts::default(),
            );
            let (b, l, rm, s) = r.breakdown().fractions();
            println!(
                "{:<8} {:<8} {:>12.2} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                app.name(),
                model.name(),
                r.sim_time as f64 / 1e6,
                b * 100.0,
                l * 100.0,
                rm * 100.0,
                s * 100.0
            );
        }
        println!();
    }

    println!("programming effort (effective source lines):");
    for row in effort_table() {
        println!(
            "  {:<8} {:<8} {:>5}",
            row.app.name(),
            row.model.name(),
            row.loc
        );
    }
    println!("\nRun `cargo run --release -p o2k-bench --bin repro -- all` for the full suite.");
}
