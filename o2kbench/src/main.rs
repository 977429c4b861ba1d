//! o2kbench — the origin2k simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path o2kbench/Cargo.toml -- \
//!     --workload <amr-p32|nbody-p32|serve-p1024> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, single-threaded: every cell runs the
//! deterministic schedule on the event core (`RunOpts::det_event()`).
//!
//! * `--trace 0` (default) measures the end-to-end metrics with tracing
//!   off: full passes interleaved with null passes (for `setup_s`) for
//!   `--seconds`.
//! * `--trace 1` alternates plain and traced passes for `--seconds`,
//!   measures each layer's unit cost, prints the layer-share table, writes
//!   the spans to `o2kbench/out/`, and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count correctness checks (`check_fail_frac` = failed /
//! attempted). The process exits 1 when any check failed and 2 on bad
//! arguments or a pinned environment variable.
//!
//! Seeds: [`DEFAULT_SEED`] is the fixed default; [`HELD_OUT_SEED`] is kept
//! out of tuning, and a claimed gain must also hold on it.

mod layers;
mod spans;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::Spans;
use workload::{check_pass, check_repeat, run_pass, Checks, Inputs, Pass, Workload, NULL_CELLS};

/// The fixed default workload seed.
pub const DEFAULT_SEED: u64 = 42;
/// The held-out seed: never used while tuning a change, and a claim must
/// also hold on it.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// Process globals that would silently change what is measured: the
/// benchmark passes policy, backend, fault mode and snapshot spec as
/// values and refuses to start while any of these is set.
const PINNED_ENV: [&str; 6] = [
    "O2K_SCHED",
    "O2K_EXEC",
    "O2K_FAULT",
    "O2K_TRACE",
    "O2K_STACK_KB",
    "O2K_THREAD_PE_CAP",
];

/// Full passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Host seconds of null passes before each full pass (at least one).
const NULL_SLICE_S: f64 = 0.5;

/// A metric's definition: name, unit, which direction is better, and a
/// note: what an end-to-end metric measures, or which end-to-end metric a
/// per-layer metric should move, on which workload.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub note: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

/// End-to-end metrics, measured with tracing off.
#[rustfmt::skip]
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_s", "s", "lower", "host seconds for one pass (median)"),
    def("sim_picks_per_s", "1/s", "higher", "scheduler picks per host second"),
    def("setup_s", "s", "lower", "host seconds of one null pass (median)"),
    def("peak_rss_mb", "MiB", "lower", "VmHWM after the first full pass"),
];

/// Per-layer metrics of the traced run, with the layer-to-metric map.
#[rustfmt::skip]
pub const PER_LAYER: [MetricDef; 32] = [
    def("sched.picks", "count", "lower", "moves wall_s, sim_picks_per_s: all"),
    def("parallel.barriers", "count", "lower", "moves wall_s: all"),
    def("parallel.lock_acquires", "count", "lower", "moves wall_s: all"),
    def("net.transfers", "count", "lower", "moves wall_s: all"),
    def("net.links", "count", "lower", "moves wall_s: all"),
    def("mp.msgs", "count", "lower", "moves wall_s: all (MPI cells)"),
    def("mp.bytes", "B", "lower", "moves wall_s: all (MPI cells)"),
    def("shmem.puts", "count", "lower", "moves wall_s: all (SHMEM cells)"),
    def("shmem.gets", "count", "lower", "moves wall_s: all (SHMEM cells)"),
    def("shmem.amos", "count", "lower", "moves wall_s: all (SHMEM cells)"),
    def("sas.accesses", "count", "lower", "moves wall_s: nbody-p32, serve-p1024"),
    def("sas.hit_ratio", "ratio", "higher", "moves wall_s: nbody-p32"),
    def("sas.invalidations", "count", "lower", "moves wall_s: amr-p32"),
    def("serve.requests", "count", "higher", "moves wall_s: serve-p1024"),
    def("snap.bytes", "B", "lower", "moves wall_s: amr-p32"),
    def("apps.mp_s", "s", "lower", "moves wall_s: all"),
    def("apps.shmem_s", "s", "lower", "moves wall_s: all"),
    def("apps.sas_s", "s", "lower", "moves wall_s: all"),
    def("mesh.adapt_s", "s", "lower", "moves wall_s: amr-p32 (times P)"),
    def("mesh.dual_s", "s", "lower", "moves wall_s: amr-p32 (times P)"),
    def("partition.rcb_s", "s", "lower", "moves wall_s: amr-p32 (times P)"),
    def("nbody.tree_force_s", "s", "lower", "moves wall_s: nbody-p32"),
    def("sas.cache_ns", "ns", "lower", "moves wall_s: nbody-p32"),
    def("net.route_ns", "ns", "lower", "moves wall_s: amr-p32, serve-p1024"),
    def("sched.switch_ns", "ns", "lower", "moves wall_s, sim_picks_per_s: serve-p1024"),
    def("sched.heap_ns", "ns", "lower", "moves wall_s, sim_picks_per_s: serve-p1024"),
    def("serve.hist_ns", "ns", "lower", "moves wall_s, peak_rss_mb: serve-p1024"),
    def("snap.capture_s", "s", "lower", "moves wall_s: amr-p32"),
    def("snap.restore_s", "s", "lower", "moves wall_s: amr-p32"),
    def("report.render_s", "s", "lower", "moves wall_s: all"),
    def("machine.build_s", "s", "lower", "moves setup_s: all"),
    def("trace.overhead_s", "s", "lower", "none (traced minus plain pass)"),
];

/// One measured value, reported under a name from the tables above.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: o2kbench --workload <amr-p32|nbody-p32|serve-p1024> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds must be within 0..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's output, or `unknown`.
fn probe_cmd(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory, looking no further up than
/// the directory itself (an unpacked checkout reports `unknown`).
fn git_rev() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    probe_cmd(&mut git)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .expect("VmHWM is readable from /proc/self/status")
        / 1024.0
}

/// Median pass wall time.
fn median_wall(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}

/// Full and null passes, all untraced, interleaved for `seconds` so both
/// medians sample the same stretch of host conditions. Peak memory is read
/// after the first full pass: what one run of the workload needs, before
/// allocator reuse across passes moves the high-water mark.
fn end_to_end(
    wl: Workload,
    inputs: &Inputs,
    seconds: f64,
    snap_dir: &Path,
    checks: &mut Checks,
) -> Vec<Metric> {
    let null_inputs = inputs.null();
    let (mut null, mut full): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while full.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = run_pass(wl, inputs, wl.cells(), snap_dir, &mut Spans::off());
        check_pass(wl, inputs, &p, checks);
        check_repeat(full.first().unwrap_or(&p), &p, checks);
        full.push(p);
        if full.len() == 1 {
            peak_rss_mb = peak_rss_mib();
        }
        let slice = Instant::now();
        loop {
            let p = run_pass(wl, &null_inputs, NULL_CELLS, snap_dir, &mut Spans::off());
            check_pass(wl, &null_inputs, &p, checks);
            check_repeat(null.first().unwrap_or(&p), &p, checks);
            null.push(p);
            if slice.elapsed().as_secs_f64() >= NULL_SLICE_S {
                break;
            }
        }
    }
    let wall_s = median_wall(&full);
    println!(
        "passes: {} full (wall_s {}), {} null (setup_s {})",
        full.len(),
        fmt_list(full.iter().map(|p| p.wall_s)),
        null.len(),
        fmt_list(null.iter().map(|p| p.wall_s)),
    );
    print_digests("cell", &full[0]);
    print_digests("null cell", &null[0]);
    vec![
        metric("wall_s", wall_s),
        metric("sim_picks_per_s", full[0].picks() as f64 / wall_s),
        metric("setup_s", median_wall(&null)),
        metric("peak_rss_mb", peak_rss_mb),
    ]
}

fn fmt_list(v: impl Iterator<Item = f64>) -> String {
    v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
}

/// Print each cell's simulated digest: a pure simulator speedup must leave
/// every one of them unchanged.
pub fn print_digests(kind: &str, pass: &Pass) {
    for c in &pass.cells {
        println!(
            "{kind} {:<16} digest {:016x}  sim_time {} ns  picks {}  fingerprint {:016x}",
            c.label,
            c.digest(),
            c.sim_time,
            c.picks,
            c.fingerprint
        );
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: the metrics in definition order.
fn result_json(checks: &Checks, metrics: &[Metric], trace: bool) -> String {
    let body: Vec<String> = defs(trace)
        .iter()
        .map(|d| {
            let m = metrics
                .iter()
                .find(|m| m.name == d.name)
                .expect("every defined metric is measured");
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name, m.value, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted,
        checks.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("o2kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pinned: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "o2kbench: refusing to run with {} set: it would change what is measured",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }

    let wl = args.workload;
    let inputs = Inputs::new(args.seed, wl.pes());
    println!(
        "o2kbench {} seed {} ({}), P={}, det policy on the event core, 1 thread",
        wl.name(),
        args.seed,
        match args.seed {
            DEFAULT_SEED => "default",
            HELD_OUT_SEED => "held out",
            _ => "custom",
        },
        inputs.pes
    );
    println!(
        "host: {} cores, git {}, {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
        probe_cmd(Command::new("rustc").arg("--version")),
    );

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let snap_dir: PathBuf = out_dir.join(format!("snap-{}", std::process::id()));
    let mut checks = Checks::default();
    let metrics = if args.trace {
        let spans_out = out_dir.join(format!("spans-{}-{}.json", wl.name(), args.seed));
        layers::traced_run(
            wl,
            &inputs,
            args.seconds,
            &snap_dir,
            &spans_out,
            &mut checks,
        )
    } else {
        end_to_end(wl, &inputs, args.seconds, &snap_dir, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&snap_dir);

    println!();
    for d in defs(args.trace) {
        let m = metrics.iter().find(|m| m.name == d.name).expect("measured");
        println!(
            "{:<24} {:>16.6} {:<6} ({} is better; {})",
            d.name, m.value, d.unit, d.better, d.note
        );
    }
    println!(
        "{:<24} {:>16.6}        ({} of {} checks failed)",
        "check_fail_frac",
        checks.failed() as f64 / checks.attempted.max(1) as f64,
        checks.failed(),
        checks.attempted
    );
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", result_json(&checks, &metrics, args.trace));
    if checks.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_defs() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in all_defs() {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                d.name
            );
            assert!(seen.insert(d.name), "duplicate metric name {:?}", d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
        }
    }

    /// The tables here and `BENCHMARK.json` name the same metrics, units
    /// and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for d in all_defs() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for wl in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", wl.name())));
        }
    }

    #[test]
    fn the_result_line_lists_every_metric() {
        let metrics: Vec<Metric> = PER_LAYER.iter().map(|d| metric(d.name, 1.5)).collect();
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = result_json(&checks, &metrics, true);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"value\": 1.5").count(), PER_LAYER.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve-p1024 --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeP1024, 7, 3.0, true)
        );
        assert_eq!(
            args("--workload amr-p32").map(|a| a.seed).ok(),
            Some(DEFAULT_SEED)
        );
        for bad in [
            "",
            "--workload x",
            "--workload amr-p32 --trace 2",
            "--seed 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
