//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <id>... [--quick] [--sched <policy>] [--fault <spec>]
//!               [--snapshot <dir>@<gate>[:index] | --restore <dir>] [--trace <dir>]
//! repro all [--quick]                       run the whole suite
//! ```
//!
//! Output goes to stdout and to `results/<id>.txt`. With `--trace <dir>`
//! (or the `O2K_TRACE=<dir>` environment variable), event tracing is
//! enabled globally: every team run any experiment performs is recorded,
//! and its trace written to `<dir>/<id>_runN.trace.json` in Chrome
//! `trace_event` format (loadable at <https://ui.perfetto.dev>). Tracing
//! never perturbs simulated times, so f1–f8/a1–a6 outputs are identical
//! with it on.
//!
//! `--sched <policy>` (or `O2K_SCHED=<policy>`) picks the team scheduling
//! policy: `det` (default here — every table is bitwise reproducible),
//! `os` (free-running host threads), `explore:<seed>` (seeded random
//! interleaving), or `bp:<seed>:<budget>` (bounded preemption). Every
//! policy but `os` runs each team on the event core: every PE a coroutine
//! on one OS thread. See DESIGN.md "Determinism & scheduling".
//!
//! `--fault <spec>` (or `O2K_FAULT=<spec>`) injects link faults into every
//! machine the experiments build: `off` or
//! `plan:<link>:<action>[@<ns>][;…]` with links `up<N>` / `down<N>` /
//! `r<R>d<D>` and actions `kill` / `deg<F>` / `heal` (see DESIGN.md §4c).
//! Faults only bite when the contention model is on; N2 carries its own
//! plans and ignores this default.
//!
//! `--snapshot <dir>@<gate>[:index]` writes a checkpoint of every team
//! run into `<dir>` when execution reaches the named snap gate (`step:4`,
//! `warm`, …); `--restore <dir>` warm-starts every run whose snapshot
//! exists in `<dir>` (runs with no matching snapshot fall back to
//! from-scratch). Snap gates cost zero virtual time, so a capturing run's
//! tables are bitwise identical to a plain run's and a restored run
//! replays the plain run's tail exactly — see DESIGN.md §4g. Experiment
//! C1 manages its own snapshot directory and ignores these flags.

use std::fs;
use std::time::Instant;

use o2k_bench::{run_experiment, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut trace_dir: Option<String> = std::env::var("O2K_TRACE").ok();
    // Default to the deterministic scheduler so regenerated tables are
    // bitwise reproducible; `--sched os` restores free-running threads.
    let mut sched = std::env::var("O2K_SCHED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(o2k_sched::SchedPolicy::Det);
    // `None` leaves the `O2K_FAULT` / healthy default in place.
    let mut fault: Option<machine::FaultMode> = None;
    let mut snap: Option<o2k_snap::SnapSpec> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter().filter(|a| *a != "--quick");
    while let Some(a) = it.next() {
        if a == "--trace" {
            match it.next() {
                Some(d) => trace_dir = Some(d.clone()),
                None => {
                    eprintln!("--trace requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if a == "--sched" {
            match it.next().map(|s| s.parse()) {
                Some(Ok(p)) => sched = p,
                _ => {
                    eprintln!(
                        "--sched requires a policy: os, det, explore:<seed>, bp:<seed>:<budget>"
                    );
                    std::process::exit(2);
                }
            }
        } else if a == "--fault" {
            match it.next().map(|s| machine::FaultMode::parse(s)) {
                Some(Some(f)) => fault = Some(f),
                _ => {
                    eprintln!(
                        "--fault requires a spec: off or plan:<link>:<action>[@<ns>][;...] \
                         (links up<N>/down<N>/r<R>d<D>, actions kill/deg<F>/heal)"
                    );
                    std::process::exit(2);
                }
            }
        } else if a == "--snapshot" {
            match it.next().map(|s| o2k_snap::SnapSpec::parse_capture(s)) {
                Some(Ok(s)) => snap = Some(s),
                Some(Err(e)) => {
                    eprintln!("--snapshot: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--snapshot requires <dir>@<gate>[:index], e.g. snaps@step:4");
                    std::process::exit(2);
                }
            }
        } else if a == "--restore" {
            match it.next().map(|s| o2k_snap::SnapSpec::parse_restore(s)) {
                Some(Ok(s)) => snap = Some(s),
                _ => {
                    eprintln!("--restore requires a snapshot directory");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(a.to_lowercase());
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro <id>... [--quick] [--sched <policy>] [--fault <spec>] [--snapshot <dir>@<gate>[:index] | --restore <dir>] [--trace <dir>]   ids: {} all",
            EXPERIMENT_IDS.join(" ")
        );
        std::process::exit(2);
    }
    o2k_sched::set_default_policy(sched);
    if let Some(f) = fault {
        machine::fault::set_default_fault(f);
    }
    o2k_snap::set_spec(snap);
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(dir) = &trace_dir {
        fs::create_dir_all(dir).expect("create trace dir");
        o2k_trace::set_enabled(true);
    }
    fs::create_dir_all("results").expect("create results dir");
    let mut sections = Vec::new();
    for id in &ids {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment {id}; ids: {}", EXPERIMENT_IDS.join(" "));
            std::process::exit(2);
        }
        let start = Instant::now();
        let out = run_experiment(id, quick);
        let elapsed = start.elapsed();
        println!("{out}");
        println!("[{id} regenerated in {elapsed:.2?}]\n");
        fs::write(format!("results/{id}.txt"), &out).expect("write result file");
        if let Some(dir) = &trace_dir {
            for (n, trace) in o2k_trace::sink_drain().iter().enumerate() {
                let path = format!("{dir}/{id}_run{n}.trace.json");
                fs::write(&path, o2k_trace::chrome::to_chrome_json(trace))
                    .expect("write trace json");
                println!("[trace archived: {path}]");
            }
        }
        sections.push(o2k_core::report::Section {
            id: id.clone(),
            body: out,
        });
    }
    if sections.len() == EXPERIMENT_IDS.len() {
        let header = format!(
            "Generated by `repro all{}` — every table, figure and ablation of the\nreconstructed evaluation suite (see DESIGN.md §3 and EXPERIMENTS.md).",
            if quick { " --quick" } else { "" }
        );
        let report = o2k_core::report::assemble(&header, &sections);
        fs::write("results/REPORT.md", report).expect("write REPORT.md");
        println!("[full suite stitched into results/REPORT.md]");
    }
}
