//! Integration tests for the hybrid MPI+SAS extension: correctness against
//! the pure models, discipline (zero cross-node coherence), and the
//! machine-dependent performance story (experiment A5 in miniature).

use std::sync::Arc;

use origin2k::machine::{Machine, MachineConfig};
use origin2k::prelude::*;

fn machine(pes: usize, cfg: MachineConfig) -> Arc<Machine> {
    Arc::new(Machine::new(pes, cfg))
}

/// [`run_app_opts`] with default run options.
fn run_model(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nb: &NBodyConfig,
    am: &AmrConfig,
) -> RunMetrics {
    run_app_opts(machine, app, model, nb, am, RunOpts::default())
}

#[test]
fn hybrid_amr_matches_every_pure_model_bitwise() {
    let am = AmrConfig::small();
    let nb = NBodyConfig::small();
    let reference = run_model(
        machine(1, MachineConfig::origin2000()),
        App::Amr,
        Model::Sas,
        &nb,
        &am,
    )
    .checksum;
    for p in [2, 4, 8] {
        let c = run_model(
            machine(p, MachineConfig::origin2000()),
            App::Amr,
            Model::Hybrid,
            &nb,
            &am,
        )
        .checksum;
        assert_eq!(c, reference, "hybrid AMR diverged at P={p}");
    }
}

#[test]
fn hybrid_nbody_physics_within_tolerance() {
    let am = AmrConfig::small();
    let nb = NBodyConfig::small();
    let reference = run_model(
        machine(1, MachineConfig::origin2000()),
        App::NBody,
        Model::Sas,
        &nb,
        &am,
    )
    .checksum;
    for p in [2, 4, 8] {
        let c = run_model(
            machine(p, MachineConfig::origin2000()),
            App::NBody,
            Model::Hybrid,
            &nb,
            &am,
        )
        .checksum;
        let rel = (c - reference).abs() / reference;
        assert!(rel < 0.02, "hybrid N-body off by {rel} at P={p}");
    }
}

#[test]
fn hybrid_discipline_no_cross_node_coherence() {
    // The hybrid's defining property: page-aligned per-node segments and
    // leader messages mean the coherence protocol never crosses a node.
    let am = AmrConfig::small();
    let nb = NBodyConfig::small();
    for app in [App::NBody, App::Amr] {
        for cfg in [
            MachineConfig::origin2000(),
            MachineConfig::cluster_of_smps(),
        ] {
            let r = run_model(machine(8, cfg), app, Model::Hybrid, &nb, &am);
            assert_eq!(
                r.counters.misses_remote, 0,
                "{app:?}: hybrid must have zero remote misses"
            );
            assert!(r.counters.msgs_sent > 0, "{app:?}: leaders must message");
            assert!(
                r.counters.cache_hits > 0,
                "{app:?}: node-local sharing used"
            );
        }
    }
}

#[test]
fn hybrid_beats_pure_fine_grained_models_on_the_cluster() {
    // The A5 headline at test scale: when cross-node coherence is
    // software-DSM priced, the hybrid stays fast while pure SHMEM/SAS pay
    // per-line prices for every boundary access.
    let am = AmrConfig {
        nx: 16,
        ny: 16,
        steps: 3,
        sweeps: 3,
        ..AmrConfig::default()
    };
    let nb = NBodyConfig::small();
    let cfg = MachineConfig::cluster_of_smps();
    let hy = run_model(machine(16, cfg.clone()), App::Amr, Model::Hybrid, &nb, &am).sim_time;
    let sas = run_model(machine(16, cfg.clone()), App::Amr, Model::Sas, &nb, &am).sim_time;
    let sh = run_model(machine(16, cfg), App::Amr, Model::Shmem, &nb, &am).sim_time;
    assert!(
        hy < sas,
        "hybrid ({hy}) must beat pure SAS ({sas}) on the cluster"
    );
    assert!(
        hy < sh,
        "hybrid ({hy}) must beat pure SHMEM ({sh}) on the cluster"
    );
}

#[test]
fn hybrid_uses_far_fewer_messages_than_mp() {
    let am = AmrConfig::small();
    let nb = NBodyConfig::small();
    for app in [App::NBody, App::Amr] {
        let hy = run_model(
            machine(8, MachineConfig::origin2000()),
            app,
            Model::Hybrid,
            &nb,
            &am,
        );
        let mp = run_model(
            machine(8, MachineConfig::origin2000()),
            app,
            Model::Mp,
            &nb,
            &am,
        );
        assert!(
            hy.counters.msgs_sent * 2 < mp.counters.msgs_sent,
            "{app:?}: node-granularity messaging should halve message count at least ({} vs {})",
            hy.counters.msgs_sent,
            mp.counters.msgs_sent
        );
    }
}

#[test]
fn hybrid_stays_competitive_on_the_origin2000() {
    // The hybrid pays a leader-serialisation tax (non-leader PEs wait at
    // node barriers while leaders exchange messages — visible as extra
    // Sync time), but on hardware ccNUMA it must still land in CC-SAS's
    // neighbourhood, well ahead of pure MPI.
    let am = AmrConfig {
        nx: 16,
        ny: 16,
        steps: 2,
        sweeps: 6,
        ..AmrConfig::default()
    };
    let nb = NBodyConfig::small();
    let m = machine(16, MachineConfig::origin2000());
    let hy = run_model(Arc::clone(&m), App::Amr, Model::Hybrid, &nb, &am);
    let sas = run_model(Arc::clone(&m), App::Amr, Model::Sas, &nb, &am);
    let mp = run_model(m, App::Amr, Model::Mp, &nb, &am);
    assert!(
        hy.sim_time < mp.sim_time,
        "hybrid ({}) must beat pure MPI ({}) on ccNUMA",
        hy.sim_time,
        mp.sim_time
    );
    // At this deliberately tiny workload the leader tax is at its worst;
    // A5 shows the gap closing to ~2% at realistic sizes.
    assert!(
        (hy.sim_time as f64) < 2.0 * sas.sim_time as f64,
        "hybrid ({}) should stay within 2x of SAS ({}) even at toy sizes",
        hy.sim_time,
        sas.sim_time
    );
}
