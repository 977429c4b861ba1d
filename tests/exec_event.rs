//! The event execution core: every cooperative policy runs each PE as a
//! coroutine on one OS thread, driven by `CoopSched::drive`.
//!
//! Two layers of evidence:
//!
//! * **Property tests** — virtual-time monotonicity of the event heap's
//!   pick sequence, deterministic tie-breaking (same seed ⇒ same
//!   fingerprint), and no lost wakeups through mailbox+barrier traffic at
//!   P ∈ {2, 4, 8, 64}.
//! * **Scale smoke** — P = 1024 teams complete on the event core for
//!   N-body, AMR, and serving, with cross-model checksums agreeing and
//!   request conservation holding.
//!
//! Plus the scheduler's failure diagnoses (logic deadlock vs network
//! partition), which must be deterministic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use origin2k::prelude::*;

fn machine(p: usize) -> Arc<Machine> {
    Machine::origin2000(p)
}

/// Byte-level equivalence of two runs: simulated time, physics checksum
/// bits, merged counters, per-PE breakdowns, NetStats, ServeStats, and
/// the schedule fingerprint.
fn assert_same_run(tag: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time");
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{tag}: checksum bits"
    );
    assert_eq!(a.counters, b.counters, "{tag}: merged counters");
    assert_eq!(a.per_pe, b.per_pe, "{tag}: per-PE breakdowns");
    assert_eq!(a.net, b.net, "{tag}: NetStats");
    assert_eq!(a.serve, b.serve, "{tag}: ServeStats");
    let (fa, fb) = (a.sched.as_ref().unwrap(), b.sched.as_ref().unwrap());
    assert_eq!(fa.fingerprint, fb.fingerprint, "{tag}: pick sequence");
    assert_eq!(fa.switches, fb.switches, "{tag}: handoff count");
}

// ------------------------------------------------------ property tests

mod properties {
    use super::*;
    use origin2k::sched::CoopSched;
    use proptest::prelude::*;
    use std::cell::RefCell;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The det event heap grants the floor in non-decreasing virtual
        /// time: after a warm-up barrier, the clock observed at each grant
        /// never regresses (ties broken by PE id never reorder time).
        #[test]
        fn popped_virtual_times_are_monotone_under_event(
            p_idx in 0usize..3,
            incs in proptest::collection::vec(1u64..1_000, 64),
        ) {
            let p = [2usize, 4, 8][p_idx];
            let rounds = incs.len() / p;
            let sched = CoopSched::new(p, SchedPolicy::Det, vec![p]);
            let grants = RefCell::new(Vec::new());
            let (sched, grants_ref, incs) = (&sched, &grants, &incs);
            let outcome = sched.drive((0..p).map(|pe| move || {
                sched.gate_wait(0, pe, 0);
                let mut clock = 0u64;
                for r in 0..rounds {
                    clock += incs[r * p + pe];
                    sched.yield_now(pe, clock);
                    // The floor is ours again: one grant observed.
                    grants_ref.borrow_mut().push(clock);
                }
                clock
            }));
            prop_assert!(outcome.is_ok(), "all PEs must run dry");
            let grants = grants.into_inner();
            prop_assert_eq!(grants.len(), rounds * p);
            for w in grants.windows(2) {
                prop_assert!(
                    w[0] <= w[1],
                    "virtual time regressed across grants: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }

        /// Deterministic tie-breaking: the same Explore seed produces the
        /// same schedule fingerprint and results twice in a row.
        #[test]
        fn same_seed_same_fingerprint_twice(
            p in 2usize..9,
            seed in any::<u64>(),
        ) {
            let policy = SchedPolicy::Explore { seed };
            let go = || {
                Team::new(machine(p))
                    .seed(7)
                    .sched(policy)
                    .run(|ctx| {
                        for _ in 0..4 {
                            ctx.compute(50 + ctx.pe() as u64 * 11);
                            ctx.barrier();
                        }
                        ctx.rng_u64()
                    })
            };
            let (a, b) = (go(), go());
            let f = |r: &parallel::TeamRun<u64>| r.sched.as_ref().unwrap().fingerprint;
            prop_assert_eq!(f(&a), f(&b), "replay must take the same picks");
            prop_assert_eq!(a.results, b.results);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// No lost wakeups: random mailbox ring traffic plus barriers at
        /// P ∈ {2, 4, 8, 64}. A lost wakeup deadlocks (poisons) the team;
        /// completion with every PE's ring sum replayed is the assertion.
        #[test]
        fn no_lost_wakeups_under_event(
            p_idx in 0usize..4,
            rounds in 1usize..4,
            payload in any::<u64>(),
        ) {
            let p = [2usize, 4, 8, 64][p_idx];
            let go = || {
                let mach = Arc::new(machine::Machine::new(
                    p,
                    machine::MachineConfig::test_tiny(),
                ));
                let world = Arc::new(mp::MpWorld::new(Arc::clone(&mach)));
                Team::new(mach)
                    .seed(payload)
                    .sched(SchedPolicy::Det)
                    .run(move |ctx| {
                        let me = ctx.pe();
                        let n = ctx.npes();
                        let mut acc = payload;
                        for r in 0..rounds {
                            let dst = (me + 1) % n;
                            let src = (me + n - 1) % n;
                            world.send(ctx, dst, r as mp::Tag, &[acc]);
                            let (_, _, got) = world.recv::<u64>(
                                ctx,
                                mp::RecvSpec {
                                    src: Some(src),
                                    tag: Some(r as mp::Tag),
                                },
                            );
                            acc = acc.wrapping_add(got[0]).rotate_left(7);
                            ctx.compute(10 + (me as u64 * 3 + r as u64) % 17);
                            ctx.barrier();
                        }
                        acc
                    })
            };
            let (a, b) = (go(), go());
            prop_assert_eq!(a.results.len(), p);
            prop_assert_eq!(&a.results, &b.results, "ring traffic must replay");
            prop_assert_eq!(
                a.sched.as_ref().unwrap().fingerprint,
                b.sched.as_ref().unwrap().fingerprint
            );
        }
    }
}

// ----------------------------------------------------- P = 1024 smoke

/// N-body at P = 1024 on the event core: SHMEM and MPI both complete
/// and agree on the physics **bitwise** at the same P (the models trade identical essential trees). A CC-SAS run
/// anchors the physics at P = 64 — the smoke keeps that model small
/// because across *different* P the MAC accepts slightly different
/// cells per partition, so the cross-P check is a tolerance, not bit
/// equality (the directory's sharer set grows past one word now, so
/// 64 is a run-time budget, not a cap).
///
/// The MPI LET trade is O(P²) in messages, so this smoke is
/// release-only (it takes minutes under debug assertions); CI runs it
/// in the release-scale step alongside E1.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "P=1024 N-body smoke is release-only: run with `cargo test --release --test exec_event p1024`"
)]
fn nbody_p1024_completes_and_models_agree_under_event() {
    let nb = NBodyConfig {
        n: 1_024,
        steps: 1,
        ..NBodyConfig::default()
    };
    let am = AmrConfig::small();
    let sh = run_app_opts(
        machine(1024),
        App::NBody,
        Model::Shmem,
        &nb,
        &am,
        RunOpts::det_event(),
    );
    assert_eq!(sh.pes, 1024);
    assert!(sh.sim_time > 0, "the run must do work");
    assert!(sh.checksum.is_finite(), "bodies must be conserved");
    let mp = run_app_opts(
        machine(1024),
        App::NBody,
        Model::Mp,
        &nb,
        &am,
        RunOpts::det_event(),
    );
    assert_eq!(
        sh.checksum.to_bits(),
        mp.checksum.to_bits(),
        "SHMEM and MPI must agree bitwise on the physics at P=1024"
    );
    let sas = run_app_opts(
        machine(64),
        App::NBody,
        Model::Sas,
        &nb,
        &am,
        RunOpts::det_event(),
    );
    let rel = (sh.checksum - sas.checksum).abs() / sas.checksum.abs();
    assert!(
        rel < 1e-6,
        "P=1024 physics must anchor to the P=64 CC-SAS run (rel err {rel:e})"
    );
}

/// AMR at P = 1024 on the event core (one cell per PE on the base
/// mesh): completion plus cross-model physics agreement. The anchors
/// run at P = 64 — the AMR checksum is partition-invariant (pinned
/// across P by E1), so small anchors carry the full cross-model
/// comparison without the directory-protocol run time of a 1024-PE
/// CC-SAS team.
#[test]
fn amr_p1024_completes_and_models_agree_under_event() {
    let nb = NBodyConfig::small();
    let am = AmrConfig {
        nx: 32,
        ny: 32,
        steps: 1,
        sweeps: 1,
        ..AmrConfig::default()
    };
    let sh = run_app_opts(
        machine(1024),
        App::Amr,
        Model::Shmem,
        &nb,
        &am,
        RunOpts::det_event(),
    );
    assert_eq!(sh.pes, 1024);
    assert!(sh.sim_time > 0, "the run must do work");
    for model in [Model::Mp, Model::Sas] {
        let anchor = run_app_opts(machine(64), App::Amr, model, &nb, &am, RunOpts::det_event());
        assert_eq!(
            sh.checksum.to_bits(),
            anchor.checksum.to_bits(),
            "SHMEM at P=1024 must agree with {model:?} at P=64 on the physics"
        );
    }
}

/// Serving at P = 1024 shards: every request issued is completed
/// (conservation), and a second run replays bitwise — the event core
/// is deterministic even with a thousand coroutines in flight. (The
/// serve checksum depends on the shard layout, so cross-model equality
/// is pinned at P ≤ 64 by the goldens; SHMEM is the model that runs
/// cheapest here — MP termination trades O(P²) DONE tokens, which the
/// release-only mitigation smoke below pays for.)
#[test]
fn serve_p1024_conserves_requests_under_event() {
    let cfg = ServeConfig {
        keys: 16_384,
        requests: 2_048,
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    };
    let go = || origin2k::serve::run_opts(machine(1024), Model::Shmem, &cfg, RunOpts::det_event());
    let a = go();
    let s = a.serve.as_ref().expect("serving runs carry ServeStats");
    assert_eq!(s.issued, cfg.requests, "every request issued");
    assert_eq!(s.completed + s.failed, s.issued, "conservation");
    assert!(
        s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns,
        "quantile order"
    );
    let b = go();
    assert_same_run("serve p1024 replay", &a, &b);
}

/// Hot-shard mitigation at P = 1024 shards on the event core: under
/// key skew 3.0 the first shards take an order-of-magnitude overload,
/// and both replicated reads and MP work-stealing must cut the skewed
/// p99 below mitigation-off while serving bit-identical data. The MP
/// cells trade O(P²) DONE tokens, so this smoke is release-only; CI
/// runs it in the release-scale step.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "P=1024 mitigation smoke is release-only: run with `cargo test --release --test exec_event p1024`"
)]
fn serve_p1024_mitigation_cuts_skewed_tail_under_event() {
    use origin2k::machine::ContentionMode;
    use origin2k::serve::Mitigation;
    let p = 1024usize;
    let queued = || {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        ))
    };
    let cfg = |mitigation: Mitigation| ServeConfig {
        keys: 64 * p,
        requests: 32 * p as u64,
        mean_gap_ns: 15_000,
        skew: 3.0,
        val_words: 64,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation,
        start_ns: 600_000,
    };
    let run = |model: Model, mit: Mitigation| {
        origin2k::serve::run_opts(queued(), model, &cfg(mit), RunOpts::det_event())
    };
    let grid = [
        (Model::Mp, Mitigation::Replicate { replicas: 3 }),
        (Model::Mp, Mitigation::Steal),
        (Model::Shmem, Mitigation::Replicate { replicas: 3 }),
    ];
    for (model, mit) in grid {
        let off = run(model, Mitigation::Off);
        let on = run(model, mit);
        for r in [&off, &on] {
            let s = r.serve.as_ref().expect("serving runs carry ServeStats");
            assert_eq!(s.issued, 32 * p as u64, "{model:?}: every request issued");
            assert_eq!(s.completed, s.issued, "{model:?} {mit:?}: conservation");
        }
        assert_eq!(
            on.checksum.to_bits(),
            off.checksum.to_bits(),
            "{model:?} {mit:?}: mitigation must serve bit-identical data"
        );
        let (off_p99, on_p99) = (
            off.serve.as_ref().unwrap().p99_ns,
            on.serve.as_ref().unwrap().p99_ns,
        );
        assert!(
            on_p99 < off_p99,
            "{model:?} {mit:?}: mitigation must cut the skewed p99 \
             ({on_p99} vs off {off_p99} ns)"
        );
        match mit {
            Mitigation::Replicate { .. } => assert!(
                on.counters.replica_bytes > 0,
                "{model:?}: replicate must ship copies"
            ),
            Mitigation::Steal => assert!(
                on.counters.requests_stolen > 0,
                "{model:?}: steal must claim batches"
            ),
            Mitigation::Off => unreachable!(),
        }
    }
}

// -------------------------------------- deadlock diagnosis regression

/// A logic deadlock (a recv no send will ever match) produces the same
/// scheduler diagnostic on every run.
#[test]
fn deadlock_diagnosis_is_identical_across_runs() {
    let diagnose = || -> String {
        let mach = Arc::new(machine::Machine::new(
            2,
            machine::MachineConfig::test_tiny(),
        ));
        let world = Arc::new(mp::MpWorld::new(Arc::clone(&mach)));
        let err = catch_unwind(AssertUnwindSafe(|| {
            Team::new(mach).sched(SchedPolicy::Det).run(move |ctx| {
                if ctx.pe() == 0 {
                    // No PE ever sends tag 9: a true logic deadlock.
                    world.recv::<u64>(
                        ctx,
                        mp::RecvSpec {
                            src: Some(1),
                            tag: Some(9),
                        },
                    );
                }
            })
        }))
        .expect_err("the deadlocked team must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("diagnostic panics carry a String payload")
    };
    let t = diagnose();
    assert!(
        t.contains("cooperative scheduler deadlock"),
        "must diagnose a logic deadlock: {t}"
    );
    assert_eq!(t, diagnose(), "the diagnostic must be deterministic");
}

/// A dead-link block (the fault plan partitioned the machine) is
/// diagnosed as a *network partition* — not a logic deadlock — and the
/// diagnostic is the same on every run.
#[test]
fn partition_diagnosis_is_identical_across_runs() {
    use origin2k::machine::{ContentionMode, FaultMode};
    let diagnose = || -> String {
        // 8 PEs → 4 nodes, 2 routers; killing the single r0d0 edge severs
        // rtr0 from rtr1 with nothing to detour over.
        let mach = Arc::new(Machine::new(
            8,
            MachineConfig {
                contention: ContentionMode::Queued,
                fault: FaultMode::parse("plan:r0d0:kill").expect("valid fault spec"),
                ..MachineConfig::origin2000()
            },
        ));
        let err = catch_unwind(AssertUnwindSafe(|| {
            Team::new(mach).sched(SchedPolicy::Det).run(|ctx| {
                if ctx.pe() == 0 {
                    // Every route to node 2 crosses the severed edge.
                    ctx.net_delay_to_node(2, 1_024);
                }
            })
        }))
        .expect_err("the partitioned team must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("diagnostic panics carry a String payload")
    };
    let t = diagnose();
    assert!(
        t.contains("network partition"),
        "must diagnose a partition: {t}"
    );
    assert!(
        !t.contains("cooperative scheduler deadlock"),
        "must not misdiagnose as a logic deadlock: {t}"
    );
    assert_eq!(t, diagnose(), "the diagnostic must be deterministic");
}
