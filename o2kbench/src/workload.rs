//! The three workloads, the passes that run them, and the correctness
//! checks every pass must satisfy.
//!
//! A *pass* runs every cell of a workload once, in a fixed order. A *null
//! pass* runs the same machines, P and models with zero timesteps or zero
//! requests: what is left is the fixed cost every run pays (machine and
//! input construction, team and coroutine-stack creation, world and table
//! build, termination).

use std::path::Path;
use std::sync::Arc;

use apps::{AmrConfig, App, Model, NBodyConfig, RunMetrics, RunOpts};
use machine::{ContentionMode, Counters, FaultMode, Machine, MachineConfig, SimTime};
use o2k_serve::{Mitigation, ServeConfig};
use o2k_snap::{SnapPoint, SnapSpec};
use parallel::NetStats;

use crate::spans::Spans;

/// The benchmark's workloads. Each runs in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Adaptive mesh under MP, SHMEM and CC-SAS at P=32 on the full
    /// resource fabric, with a snapshot capture and a restored tail.
    AmrP32,
    /// Barnes-Hut under the three models at P=32 on the full fabric.
    NBodyP32,
    /// KV serving under the three models at P=1024, queued links.
    ServeP1024,
}

/// What a cell does about snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapRole {
    None,
    /// Capture at the workload's snapshot gate and keep running.
    Capture,
    /// Restore from the capture and replay the tail.
    Restore,
}

/// One cell of a pass: a model entry-point call.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub label: &'static str,
    pub model: Model,
    pub snap: SnapRole,
}

const fn cell(label: &'static str, model: Model, snap: SnapRole) -> CellSpec {
    CellSpec { label, model, snap }
}

const PLAIN_CELLS: [CellSpec; 3] = [
    cell("MPI", Model::Mp, SnapRole::None),
    cell("SHMEM", Model::Shmem, SnapRole::None),
    cell("CC-SAS", Model::Sas, SnapRole::None),
];

/// Cells of a null pass on every workload: the three models, no snapshots
/// (a zero-step run reaches no gate).
pub const NULL_CELLS: &[CellSpec] = &PLAIN_CELLS;

const AMR_CELLS: [CellSpec; 4] = [
    cell("MPI", Model::Mp, SnapRole::None),
    cell("SHMEM", Model::Shmem, SnapRole::None),
    cell("CC-SAS", Model::Sas, SnapRole::Capture),
    cell("CC-SAS restored", Model::Sas, SnapRole::Restore),
];

/// The AMR snapshot gate: before the last of the five steps.
const AMR_GATE_STEP: u64 = 4;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::AmrP32, Workload::NBodyP32, Workload::ServeP1024];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AmrP32 => "amr-p32",
            Workload::NBodyP32 => "nbody-p32",
            Workload::ServeP1024 => "serve-p1024",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn app(self) -> App {
        match self {
            Workload::AmrP32 => App::Amr,
            Workload::NBodyP32 => App::NBody,
            Workload::ServeP1024 => App::Serve,
        }
    }

    pub fn pes(self) -> usize {
        match self {
            Workload::AmrP32 | Workload::NBodyP32 => 32,
            Workload::ServeP1024 => 1024,
        }
    }

    /// The machine every cell runs on. The fault mode is given as a value
    /// so the process-wide fault default cannot reach the measurement.
    pub fn machine_config(self) -> MachineConfig {
        MachineConfig {
            contention: match self {
                Workload::AmrP32 | Workload::NBodyP32 => ContentionMode::Fabric,
                Workload::ServeP1024 => ContentionMode::Queued,
            },
            fault: FaultMode::Off,
            ..MachineConfig::origin2000()
        }
    }

    /// Cells of a measured pass, in run order.
    pub fn cells(self) -> &'static [CellSpec] {
        match self {
            Workload::AmrP32 => &AMR_CELLS,
            Workload::NBodyP32 | Workload::ServeP1024 => &PLAIN_CELLS,
        }
    }
}

/// The generated inputs of one workload at one seed. All three configs are
/// always built: the traced run's layer probes use them on every workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub pes: usize,
    pub amr: AmrConfig,
    pub nbody: NBodyConfig,
    pub serve: ServeConfig,
}

impl Inputs {
    /// The full-scale shapes (F2 for AMR, E1 for N-body, Q2 for serving)
    /// at `pes` PEs. The seed reaches the program only through the three
    /// configs' `seed` fields.
    pub fn new(seed: u64, pes: usize) -> Inputs {
        Inputs {
            pes,
            amr: AmrConfig {
                nx: 32,
                ny: 32,
                steps: 5,
                sweeps: 5,
                seed,
                ..AmrConfig::default()
            },
            nbody: NBodyConfig {
                n: 4096,
                steps: 2,
                seed,
                ..NBodyConfig::default()
            },
            serve: ServeConfig {
                keys: 64 * pes,
                requests: 32 * pes as u64,
                mean_gap_ns: 15_000,
                skew: 3.0,
                val_words: 64,
                service_ns: 1_500,
                deadline_ns: None,
                poll_ns: 4_000,
                seed,
                mitigation: Mitigation::Off,
                start_ns: 600_000,
            },
        }
    }

    /// The null-pass inputs: same shapes, zero timesteps, zero requests.
    pub fn null(&self) -> Inputs {
        let mut n = self.clone();
        n.amr.steps = 0;
        n.nbody.steps = 0;
        n.serve.requests = 0;
        n
    }
}

/// The simulated results of one cell that a pure simulator speedup must
/// leave identical.
#[derive(Debug, Clone)]
pub struct CellSummary {
    pub label: &'static str,
    pub model: Model,
    pub snap: SnapRole,
    pub sim_time: SimTime,
    pub checksum: f64,
    pub picks: u64,
    pub fingerprint: u64,
    pub counters: Counters,
    pub net: Option<NetStats>,
    pub serve: Option<apps::ServeStats>,
}

impl CellSummary {
    pub fn of(spec: &CellSpec, m: &RunMetrics) -> CellSummary {
        let sched = m.sched.expect("det runs carry SchedStats");
        CellSummary {
            label: spec.label,
            model: spec.model,
            snap: spec.snap,
            sim_time: m.sim_time,
            checksum: m.checksum,
            picks: sched.switches,
            fingerprint: sched.fingerprint,
            counters: m.counters.clone(),
            net: m.net,
            serve: m.serve.clone(),
        }
    }

    /// FNV-1a over every simulated statistic of the cell: sim time,
    /// checksum bits, the schedule fingerprint and pick count, the
    /// counters, the fabric statistics and the serving quantiles.
    pub fn digest(&self) -> u64 {
        let serve = self.serve.as_ref().map(|s| {
            (
                s.issued,
                s.completed,
                s.failed,
                s.p50_ns,
                s.p99_ns,
                s.p999_ns,
                s.max_ns,
                s.mean_ns,
            )
        });
        let text = format!(
            "{}|{:016x}|{}|{:016x}|{:?}|{:?}|{:?}",
            self.sim_time,
            self.checksum.to_bits(),
            self.picks,
            self.fingerprint,
            self.counters,
            self.net,
            serve
        );
        o2k_snap::fnv1a(text.as_bytes())
    }
}

/// One pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    pub cells: Vec<CellSummary>,
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Size of the snapshot the pass captured (0 without a capture cell).
    pub snap_bytes: u64,
}

impl Pass {
    pub fn picks(&self) -> u64 {
        self.cells.iter().map(|c| c.picks).sum()
    }

    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for c in &self.cells {
            sum.merge(&c.counters);
        }
        sum
    }

    /// Requests issued by the serving cells.
    pub fn requests(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.serve.as_ref())
            .map(|s| s.issued)
            .sum()
    }
}

/// The snapshot request of a cell whose snapshots live in `dir`.
fn snap_spec(dir: &Path, role: SnapRole) -> Option<SnapSpec> {
    let dir = dir.to_path_buf();
    match role {
        SnapRole::None => None,
        SnapRole::Capture => Some(SnapSpec::Capture {
            dir,
            point: SnapPoint {
                name: "step".into(),
                index: AMR_GATE_STEP,
            },
        }),
        SnapRole::Restore => Some(SnapSpec::Restore { dir }),
    }
}

/// The snapshot file in `dir`, if one was captured.
pub fn snapshot_file(dir: &Path) -> Option<std::path::PathBuf> {
    std::fs::read_dir(dir).ok()?.find_map(|e| {
        let p = e.ok()?.path();
        p.extension()
            .is_some_and(|x| x == o2k_snap::EXT)
            .then_some(p)
    })
}

/// Span name of a model's entry point.
fn entry_span(model: Model) -> &'static str {
    match model {
        Model::Mp => "apps.mp",
        Model::Shmem => "apps.shmem",
        Model::Sas => "apps.sas",
        Model::Hybrid => "apps.hybrid",
    }
}

/// Run one cell through the public entry point, on the deterministic
/// schedule of the single-threaded event core.
fn run_cell(
    wl: Workload,
    inputs: &Inputs,
    spec: &CellSpec,
    snap_dir: &Path,
    spans: &mut Spans,
) -> RunMetrics {
    let cfg = wl.machine_config();
    let machine = spans.span("machine.build", |_| Arc::new(Machine::new(inputs.pes, cfg)));
    let opts = RunOpts {
        snap: snap_spec(snap_dir, spec.snap),
        ..RunOpts::det_event()
    };
    spans.span(entry_span(spec.model), |_| match wl.app() {
        App::Serve => o2k_serve::run_opts(machine, spec.model, &inputs.serve, opts),
        app => apps::run_app_opts(machine, app, spec.model, &inputs.nbody, &inputs.amr, opts),
    })
}

/// Run every cell of `cells` once and time the whole pass.
pub fn run_pass(
    wl: Workload,
    inputs: &Inputs,
    cells: &[CellSpec],
    snap_dir: &Path,
    spans: &mut Spans,
) -> Pass {
    let t = std::time::Instant::now();
    let out: Vec<CellSummary> = cells
        .iter()
        .map(|spec| {
            let m = spans.span(spec.label, |spans| {
                run_cell(wl, inputs, spec, snap_dir, spans)
            });
            CellSummary::of(spec, &m)
        })
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let captures = cells.iter().any(|c| c.snap == SnapRole::Capture);
    Pass {
        cells: out,
        wall_s,
        snap_bytes: snapshot_file(snap_dir)
            .filter(|_| captures)
            .and_then(|f| f.metadata().ok())
            .map_or(0, |m| m.len()),
    }
}

/// Correctness checks made so far; they feed `check_fail_frac`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Relative tolerance of N-body checksums across models: the models build
/// different trees (global vs local plus LET), as the cross-model tests
/// already allow.
const NBODY_REL_TOL: f64 = 0.02;

/// The checks one pass must satisfy on its own: the models computed the
/// same answer, serving conserved its requests, and a restored tail
/// replayed its straight run.
pub fn check_pass(wl: Workload, inputs: &Inputs, pass: &Pass, checks: &mut Checks) {
    let first = &pass.cells[0];
    for c in &pass.cells {
        checks.check(c.picks > 0, || format!("{}: no scheduler picks", c.label));
    }
    for c in &pass.cells[1..] {
        let same = match wl.app() {
            App::NBody => {
                let rel = (c.checksum - first.checksum).abs() / first.checksum.abs().max(1e-300);
                rel < NBODY_REL_TOL
            }
            _ => c.checksum.to_bits() == first.checksum.to_bits(),
        };
        checks.check(same, || {
            format!(
                "{} checksum {:e} disagrees with {} checksum {:e}",
                c.label, c.checksum, first.label, first.checksum
            )
        });
    }
    if wl.app() == App::Serve {
        let base = first.serve.as_ref();
        for c in &pass.cells {
            let Some(s) = c.serve.as_ref() else {
                checks.check(false, || {
                    format!("{}: serving run without ServeStats", c.label)
                });
                continue;
            };
            checks.check(s.issued == s.completed + s.failed, || {
                format!(
                    "{}: issued {} != completed {} + failed {}",
                    c.label, s.issued, s.completed, s.failed
                )
            });
            checks.check(s.issued == inputs.serve.requests, || {
                format!(
                    "{}: issued {} != requests {}",
                    c.label, s.issued, inputs.serve.requests
                )
            });
            checks.check(
                base.is_some_and(|b| b.shard_counts == s.shard_counts),
                || format!("{}: shard_counts differ from {}", c.label, first.label),
            );
        }
    }
    for c in pass.cells.iter().filter(|c| c.snap == SnapRole::Restore) {
        checks.check(pass.snap_bytes > 0, || {
            format!("{}: no snapshot was captured to restore from", c.label)
        });
        let straight = pass
            .cells
            .iter()
            .find(|s| s.snap == SnapRole::Capture)
            .expect("a restored cell has a capturing cell in its pass");
        checks.check(
            c.sim_time == straight.sim_time
                && c.checksum.to_bits() == straight.checksum.to_bits()
                && c.fingerprint == straight.fingerprint
                && c.counters == straight.counters,
            || {
                format!(
                    "{} does not replay {}: sim {} vs {}, fingerprint {:016x} vs {:016x}",
                    c.label,
                    straight.label,
                    c.sim_time,
                    straight.sim_time,
                    c.fingerprint,
                    straight.fingerprint
                )
            },
        );
    }
}

/// Every cell's simulated digest must be identical in every pass of the
/// same inputs.
pub fn check_repeat(reference: &Pass, pass: &Pass, checks: &mut Checks) {
    for (a, b) in reference.cells.iter().zip(&pass.cells) {
        let (da, db) = (a.digest(), b.digest());
        checks.check(da == db, || {
            format!("{}: digest {da:016x} changed to {db:016x}", a.label)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(spec: &CellSpec, checksum: f64) -> CellSummary {
        CellSummary {
            label: spec.label,
            model: spec.model,
            snap: spec.snap,
            sim_time: 1_000,
            checksum,
            picks: 10,
            fingerprint: 0xABCD,
            counters: Counters::default(),
            net: None,
            serve: None,
        }
    }

    fn amr_pass() -> Pass {
        Pass {
            cells: AMR_CELLS.iter().map(|c| summary(c, 1.5)).collect(),
            wall_s: 1.0,
            snap_bytes: 64,
        }
    }

    #[test]
    fn a_consistent_pass_passes() {
        let inputs = Inputs::new(1, 4);
        let mut checks = Checks::default();
        let p = amr_pass();
        check_pass(Workload::AmrP32, &inputs, &p, &mut checks);
        check_repeat(&p, &p, &mut checks);
        assert!(checks.attempted > 0);
        assert_eq!(checks.failures, Vec::<String>::new());
    }

    #[test]
    fn a_perturbed_checksum_fails() {
        let inputs = Inputs::new(1, 4);
        let mut p = amr_pass();
        p.cells[1].checksum = f64::from_bits(1.5f64.to_bits() + 1);
        let mut checks = Checks::default();
        check_pass(Workload::AmrP32, &inputs, &p, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
    }

    #[test]
    fn a_restored_tail_that_drifts_fails() {
        let inputs = Inputs::new(1, 4);
        let mut p = amr_pass();
        p.cells[3].counters.barriers += 1;
        let mut checks = Checks::default();
        check_pass(Workload::AmrP32, &inputs, &p, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
        let mut p = amr_pass();
        p.snap_bytes = 0;
        let mut checks = Checks::default();
        check_pass(Workload::AmrP32, &inputs, &p, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
    }

    #[test]
    fn a_perturbed_digest_fails() {
        let reference = amr_pass();
        let perturbations: [fn(&mut CellSummary); 5] = [
            |c| c.sim_time += 1,
            |c| c.fingerprint ^= 1,
            |c| c.picks += 1,
            |c| c.counters.misses_remote += 1,
            |c| c.net = Some(NetStats::default()),
        ];
        for perturb in perturbations {
            let mut p = amr_pass();
            perturb(&mut p.cells[2]);
            let mut checks = Checks::default();
            check_repeat(&reference, &p, &mut checks);
            assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
        }
    }

    #[test]
    fn serving_conservation_is_checked() {
        let inputs = Inputs::new(1, 4);
        let stats = |issued, completed| apps::ServeStats {
            issued,
            completed,
            failed: 0,
            p50_ns: 1,
            p99_ns: 2,
            p999_ns: 3,
            max_ns: 4,
            mean_ns: 1,
            throughput_rps: 1.0,
            shard_counts: vec![issued],
        };
        let n = inputs.serve.requests;
        let mut p = Pass {
            cells: PLAIN_CELLS
                .iter()
                .map(|c| {
                    let mut s = summary(c, 7.0);
                    s.serve = Some(stats(n, n));
                    s
                })
                .collect(),
            wall_s: 1.0,
            snap_bytes: 0,
        };
        let mut checks = Checks::default();
        check_pass(Workload::ServeP1024, &inputs, &p, &mut checks);
        assert_eq!(checks.failed(), 0, "{:?}", checks.failures);
        p.cells[2].serve = Some(stats(n, n - 1));
        let mut checks = Checks::default();
        check_pass(Workload::ServeP1024, &inputs, &p, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
    }

    #[test]
    fn the_seed_reaches_only_the_seed_fields() {
        let (a, b) = (Inputs::new(1, 8), Inputs::new(2, 8));
        assert_eq!((a.amr.seed, a.nbody.seed, a.serve.seed), (1, 1, 1));
        let mut b2 = b.clone();
        b2.amr.seed = 1;
        b2.nbody.seed = 1;
        b2.serve.seed = 1;
        assert_eq!(format!("{a:?}"), format!("{b2:?}"));
    }

    /// Each workload's null pass, at a small P, is accepted by the entry
    /// points and passes the same checks as a measured pass.
    #[test]
    fn null_pass_configs_are_accepted() {
        // A null pass reaches no snapshot gate, so the directory stays
        // untouched.
        let snap_dir = Path::new("unused");
        for wl in Workload::ALL {
            let inputs = Inputs::new(crate::DEFAULT_SEED, 4).null();
            let pass = run_pass(wl, &inputs, NULL_CELLS, snap_dir, &mut Spans::off());
            let mut checks = Checks::default();
            check_pass(wl, &inputs, &pass, &mut checks);
            assert_eq!(checks.failed(), 0, "{}: {:?}", wl.name(), checks.failures);
        }
    }
}
