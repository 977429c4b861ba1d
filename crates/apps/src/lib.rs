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
use parallel::{SchedPolicy, Team};

/// Per-run execution options every model entry point honours: an optional
/// scheduling-policy override and an optional snapshot capture/restore
/// request. `None` keeps the process defaults
/// ([`parallel::sched::default_policy`] / [`o2k_snap::current_spec`]).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Scheduling policy (which PE runs next).
    pub sched: Option<SchedPolicy>,
    /// Snapshot capture/restore for this run (see [`snapshot`]).
    pub snap: Option<o2k_snap::SnapSpec>,
}

impl RunOpts {
    /// Only a scheduling policy — the legacy `run_sched` surface.
    pub fn with_sched(sched: Option<SchedPolicy>) -> Self {
        RunOpts {
            sched,
            ..Self::default()
        }
    }

    /// The deterministic schedule, pinned regardless of the process
    /// default. Like every cooperative policy it runs on the event core.
    pub fn det_event() -> Self {
        RunOpts::with_sched(Some(SchedPolicy::Det))
    }

    /// Apply the overrides to a team builder.
    pub fn configure(&self, team: Team) -> Team {
        match self.sched {
            Some(s) => team.sched(s),
            None => team,
        }
    }
}

/// Run an application under a model on a machine. The uniform entry point
/// the experiment driver uses.
pub fn run_app(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
) -> RunMetrics {
    run_app_sched(machine, app, model, nbody_cfg, amr_cfg, None)
}

/// [`run_app`] with an explicit scheduling policy. `None` keeps the
/// process default ([`parallel::sched::default_policy`]); experiments that
/// compare timing across machine configurations pin [`SchedPolicy::Det`]
/// so the comparison is not confounded by OS thread interleaving.
pub fn run_app_sched(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
    sched: Option<SchedPolicy>,
) -> RunMetrics {
    run_app_opts(
        machine,
        app,
        model,
        nbody_cfg,
        amr_cfg,
        RunOpts::with_sched(sched),
    )
}

/// [`run_app`] with full execution options (scheduling policy *and*
/// snapshot request — see [`RunOpts`]).
pub fn run_app_opts(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
    opts: RunOpts,
) -> RunMetrics {
    match (app, model) {
        (App::NBody, Model::Mp) => nbody_mp::run_opts(machine, nbody_cfg, opts),
        (App::NBody, Model::Shmem) => nbody_shmem::run_opts(machine, nbody_cfg, opts),
        (App::NBody, Model::Sas) => {
            nbody_sas::run_with_opts(machine, nbody_cfg, sas::PagePolicy::FirstTouch, opts)
        }
        (App::Amr, Model::Mp) => amr_mp::run_opts(machine, amr_cfg, opts),
        (App::Amr, Model::Shmem) => amr_shmem::run_opts(machine, amr_cfg, opts),
        (App::Amr, Model::Sas) => {
            amr_sas::run_with_opts(machine, amr_cfg, sas::PagePolicy::FirstTouch, opts)
        }
        (App::Amr, Model::Hybrid) => amr_hybrid::run_opts(machine, amr_cfg, opts),
        (App::NBody, Model::Hybrid) => nbody_hybrid::run_opts(machine, nbody_cfg, opts),
        // The serving workload lives above this crate (it reuses all three
        // substrates *and* these metrics), so it has its own entry point.
        (App::Serve, _) => {
            unreachable!("the serving workload is driven through o2k_serve::run, not run_app")
        }
    }
}
