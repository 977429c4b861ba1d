//! The paper's two adaptive applications under all three programming models.
//!
//! Six implementations (2 applications × 3 models), all built on the same
//! substrates and charging the same calibrated compute costs
//! ([`workcost`]), so the only differences between models are — as in the
//! paper — the communication and synchronisation machinery:
//!
//! | | MP | SHMEM | CC-SAS |
//! |---|---|---|---|
//! | N-body | ORB + locally-essential trees exchanged via `alltoallv`; explicit body repartitioning through rank 0 | ORB + LET exchanged via one-sided puts with count/offset reservation and remote atomics | costzones over a shared tree; no explicit communication at all |
//! | AMR | RCB + PLUM remap; ghost values exchanged per sweep via `alltoallv` | RCB + PLUM remap; ghosts put one-sidedly into symmetric buffers | block ownership of shared arrays; neighbour reads through the coherence protocol |
//!
//! A fourth, extension model implements both applications as a **hybrid**
//! (messages between SMP nodes, coherence within — `amr_hybrid`,
//! `nbody_hybrid`), reproducing the follow-up papers' cluster-of-SMPs
//! results.
//!
//! Every implementation returns a [`RunMetrics`] with the simulated time,
//! its breakdown, the traffic counters, and a physics checksum used by the
//! integration tests to prove the three models computed the same answer.

pub mod amr_common;
pub mod amr_hybrid;
pub mod amr_mp;
pub mod amr_sas;
pub mod amr_shmem;
pub mod metrics;
pub mod nbody_common;
pub mod nbody_hybrid;
pub mod nbody_mp;
pub mod nbody_sas;
pub mod nbody_shmem;
pub mod snapshot;
pub mod workcost;

pub use amr_common::AmrConfig;
pub use metrics::{App, Model, RunMetrics, ServeStats};
pub use nbody_common::NBodyConfig;
pub use snapshot::Snapshotter;

use std::sync::Arc;

use machine::Machine;
use parallel::{SchedPolicy, Team, TraceSink};

/// Everything a run is configured by besides the machine and the app
/// config, passed by value to every entry point: no run reads process
/// state. The default is the [`parallel::sched::default_policy`] schedule,
/// no snapshot and no trace.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Scheduling policy (which PE runs next); `None` keeps
    /// [`parallel::sched::default_policy`].
    pub sched: Option<SchedPolicy>,
    /// Snapshot capture/restore for this run (see [`snapshot`]).
    pub snap: Option<o2k_snap::SnapSpec>,
    /// Trace every team run and push its trace into this sink.
    pub trace: Option<TraceSink>,
}

impl RunOpts {
    /// The deterministic schedule, whatever `O2K_SCHED` says. Like every
    /// cooperative policy it runs on the event core.
    pub fn det_event() -> Self {
        RunOpts {
            sched: Some(SchedPolicy::Det),
            ..Self::default()
        }
    }

    /// These options with the scheduling policy replaced by `sched`.
    pub fn with_sched(&self, sched: SchedPolicy) -> Self {
        RunOpts {
            sched: Some(sched),
            ..self.clone()
        }
    }

    /// Apply the policy and trace sink to a team builder. Every team a run
    /// or an experiment builds goes through here.
    pub fn configure(&self, mut team: Team) -> Team {
        if let Some(s) = self.sched {
            team = team.sched(s);
        }
        if let Some(sink) = &self.trace {
            team = team.sink(sink.clone());
        }
        team
    }
}

/// Run an application under a model on a machine: the one dispatcher over
/// the app variants' `run` entry points. CC-SAS runs with first-touch
/// paging; ablations that vary paging call `amr_sas::run` /
/// `nbody_sas::run` directly.
///
/// # Panics
/// Panics for [`App::Serve`], which `o2k_serve::run_opts` dispatches.
pub fn run_app_opts(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
    opts: RunOpts,
) -> RunMetrics {
    let paging = sas::PagePolicy::FirstTouch;
    match (app, model) {
        (App::NBody, Model::Mp) => nbody_mp::run(machine, nbody_cfg, opts),
        (App::NBody, Model::Shmem) => nbody_shmem::run(machine, nbody_cfg, opts),
        (App::NBody, Model::Sas) => nbody_sas::run(machine, nbody_cfg, paging, opts),
        (App::NBody, Model::Hybrid) => nbody_hybrid::run(machine, nbody_cfg, opts),
        (App::Amr, Model::Mp) => amr_mp::run(machine, amr_cfg, opts),
        (App::Amr, Model::Shmem) => amr_shmem::run(machine, amr_cfg, opts),
        (App::Amr, Model::Sas) => amr_sas::run(machine, amr_cfg, paging, opts),
        (App::Amr, Model::Hybrid) => amr_hybrid::run(machine, amr_cfg, opts),
        // The serving workload lives above this crate (it reuses all three
        // substrates *and* these metrics), so it has its own entry point.
        (App::Serve, _) => {
            unreachable!("the serving workload is driven through o2k_serve::run_opts")
        }
    }
}
