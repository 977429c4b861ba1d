//! Snapshot / restore acceptance tests (DESIGN.md §4g).
//!
//! The contract under test: a snapshot captured at a virtual-time
//! quiescence point, restored into a fresh process, replays the
//! uninterrupted run's tail **bitwise** — same physics checksum bits, same
//! simulated times, same merged counters, same per-link NetStats, same
//! schedule fingerprint. And the capturing run itself is indistinguishable
//! from a plain run: snap gates cost zero virtual time.
//!
//! Two layers of evidence:
//!
//! * **Golden round-trips** — one MP, one SHMEM, and one CC-SAS workload,
//!   each captured at a mid-run step barrier and restored on a contended
//!   (queued) machine so NetStats is live and compared.
//! * **Property tests** — random (app, model, P ∈ {2,4,8}, gate index)
//!   round-trips; the invariant never depends on which barrier the
//!   snapshot lands on.

use std::path::PathBuf;
use std::sync::Arc;

use origin2k::machine::ContentionMode;
use origin2k::net::{NetSim, Route};
use origin2k::prelude::*;
use origin2k::snap::{SnapPoint, SnapSpec};

/// A machine with the queued contention model on, so runs carry NetStats
/// and the snapshot round-trip exercises the fabric export/import path.
fn contended(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: ContentionMode::Queued,
            ..MachineConfig::origin2000()
        },
    ))
}

/// Fresh scratch directory for one round-trip.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "o2ksnap-accept-{}-{}",
        tag.replace('/', "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapshot scratch dir");
    dir
}

fn det(snap: Option<SnapSpec>) -> RunOpts {
    RunOpts {
        snap,
        ..RunOpts::det_event()
    }
}

/// Byte-level equivalence of two runs: everything the goldens derive from.
fn assert_same_run(tag: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{tag}: checksum bits"
    );
    assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time");
    assert_eq!(a.counters, b.counters, "{tag}: merged counters");
    assert_eq!(a.per_pe, b.per_pe, "{tag}: per-PE breakdowns");
    assert_eq!(a.net, b.net, "{tag}: NetStats");
    let (fa, fb) = (a.sched.as_ref().unwrap(), b.sched.as_ref().unwrap());
    assert_eq!(fa.fingerprint, fb.fingerprint, "{tag}: pick sequence");
    assert_eq!(fa.switches, fb.switches, "{tag}: handoff count");
}

/// Straight run, capture run, restored run — all three must agree on every
/// observable. Returns nothing; panics with `tag` context on divergence.
fn round_trip(
    tag: &str,
    machine: impl Fn() -> Arc<Machine>,
    app: App,
    model: Model,
    gate_index: u64,
) {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    let dir = scratch(tag);
    let gate = SnapPoint {
        name: "step".into(),
        index: gate_index,
    };
    let straight = run_app_opts(machine(), app, model, &nb, &am, det(None));
    let captured = run_app_opts(
        machine(),
        app,
        model,
        &nb,
        &am,
        det(Some(SnapSpec::Capture {
            dir: dir.clone(),
            point: gate,
        })),
    );
    let restored = run_app_opts(
        machine(),
        app,
        model,
        &nb,
        &am,
        det(Some(SnapSpec::Restore { dir: dir.clone() })),
    );
    assert_same_run(
        &format!("{tag}: capture run vs straight"),
        &captured,
        &straight,
    );
    assert_same_run(
        &format!("{tag}: restored run vs straight"),
        &restored,
        &straight,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- golden round-trips

/// The acceptance matrix: one workload per model, restored at a mid-run
/// step barrier on the event core, with the contention model on.
#[test]
fn mid_run_restore_replays_the_tail_bitwise_per_model() {
    let cases = [
        (App::Amr, Model::Mp),
        (App::NBody, Model::Shmem),
        (App::Amr, Model::Sas),
    ];
    for (app, model) in cases {
        let tag = format!("{}/{}", app.name(), model.name());
        round_trip(&tag, || contended(4), app, model, 1);
    }
}

/// Route `items` from `src` back to back, each departing after the
/// queueing delay the earlier ones accrued: how a runtime charges a
/// coherence window (fill plus invalidation sweep).
fn route_serialised(
    net: &NetSim,
    pe: u32,
    src: usize,
    items: &[(usize, usize)],
    t: u64,
) -> Vec<Route> {
    let mut pending = 0;
    items
        .iter()
        .map(|&(dst, bytes)| {
            let r = net.route(pe, src, dst, bytes, t + pending);
            pending += r.delay;
            r
        })
        .collect()
}

/// The fabric's structure-of-arrays resource table must round-trip
/// through the snapshot codec exactly: drive mid-run traffic (single
/// routes, serialised coherence windows, a phase boundary), export,
/// import into a fresh fabric, and the restored table must re-export
/// byte-identical and answer every read-side query (stats, hotspots,
/// per-phase reports) identically.
#[test]
fn soa_fabric_state_round_trips_bitwise_mid_run() {
    use origin2k::machine::Topology;
    let topo = Topology::new(16, 2);
    let cfg = MachineConfig::origin2000();
    let net = NetSim::new(&topo, &cfg);
    let mut t = 0u64;
    net.begin_phase("warm");
    for i in 0..200usize {
        t += 40;
        let src = i % 8;
        let dst = (src + 3) % 8;
        net.route((src * 2) as u32, src, dst, 256, t);
    }
    net.begin_phase("hot");
    for i in 0..100usize {
        t += 40;
        let src = i % 8;
        // A fill + invalidation-sweep shaped coherence window.
        let items: Vec<(usize, usize)> = (1..5).map(|d| ((src + d) % 8, 64)).collect();
        route_serialised(&net, (src * 2) as u32, src, &items, t);
    }
    let bytes = net.export_state_bytes();
    let fresh = NetSim::new(&topo, &cfg);
    fresh
        .import_state_bytes(&bytes)
        .expect("same-shape fabric import");
    assert_eq!(
        fresh.export_state_bytes(),
        bytes,
        "import → export must be the identity on the SoA table"
    );
    assert_eq!(fresh.stats(), net.stats(), "restored NetStats");
    assert_eq!(fresh.hotspots(8), net.hotspots(8), "restored hotspot rows");
    // And the restored fabric keeps evolving identically: one more
    // coherence window on each must agree delay-for-delay.
    let items = [(5usize, 128usize), (6, 128), (7, 128)];
    let a = route_serialised(&net, 2, 1, &items, t + 40);
    let b = route_serialised(&fresh, 2, 1, &items, t + 40);
    assert_eq!(a, b, "post-restore charging must continue bitwise");
}

// ------------------------------------------------- property tests

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// snapshot → restore → run ≡ straight run, whatever the model,
        /// team size, or gate the snapshot lands on.
        #[test]
        fn restore_is_exact_everywhere(
            p_idx in 0usize..3,
            model_idx in 0usize..3,
            app_is_amr in 0usize..2,
            gate in 0u64..3,
        ) {
            let p = [2usize, 4, 8][p_idx];
            let model = Model::ALL[model_idx];
            let app = if app_is_amr == 1 { App::Amr } else { App::NBody };
            let tag = format!("prop-{}-{}-p{p}-g{gate}", app.name(), model.name());
            round_trip(&tag, || Machine::origin2000(p), app, model, gate);
        }
    }
}
