//! End-to-end properties of the o2k-trace subsystem: traces conserve the
//! clock's time accounting exactly, tracing never perturbs simulated
//! results, and the F9 experiment archives Perfetto-loadable traces.

use std::sync::Arc;

use apps::{AmrConfig, App, Model, NBodyConfig, RunMetrics, RunOpts};
use machine::{Machine, MachineConfig};
use o2k_trace::TraceSink;

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

fn amr_cfg() -> AmrConfig {
    AmrConfig::small()
}

fn nbody_cfg() -> NBodyConfig {
    NBodyConfig {
        n: 256,
        steps: 1,
        ..NBodyConfig::default()
    }
}

/// Run `app` under `model`, traced into a sink of its own when `traced`.
fn run(machine: Arc<Machine>, app: App, model: Model, traced: bool) -> RunMetrics {
    let opts = RunOpts {
        trace: traced.then(TraceSink::default),
        ..RunOpts::default()
    };
    apps::run_app_opts(machine, app, model, &nbody_cfg(), &amr_cfg(), opts)
}

/// Per-PE event spans must sum, per category, to exactly the clock's own
/// breakdown: every nanosecond the runtimes charge is captured by exactly
/// one recorded event.
#[test]
fn trace_conserves_clock_breakdown() {
    for model in Model::WITH_HYBRID {
        let r = run(machine(4), App::Amr, model, true);
        let trace = r
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{}: tracing enabled but no trace collected", model.name()));
        trace.validate().expect("well-formed trace");
        assert_eq!(trace.pes(), 4);
        for pe in 0..4 {
            let from_events = trace.pe_breakdown(pe);
            let from_clock = r.per_pe[pe];
            assert_eq!(
                (
                    from_events.busy,
                    from_events.local,
                    from_events.remote,
                    from_events.sync
                ),
                (
                    from_clock.busy,
                    from_clock.local,
                    from_clock.remote,
                    from_clock.sync
                ),
                "{} PE {pe}: trace must account for every charged nanosecond",
                model.name()
            );
        }
    }
}

/// Tracing must be a pure observer: enabling it cannot change any
/// simulated time or physics result.
///
/// MP and SHMEM runs are fully deterministic, so traced and untraced
/// runs must be bit-identical (sim_time, checksum, every counter). The
/// CC-SAS directory resolves first-touch homing and sharer-list order by
/// real thread interleaving, so its local/remote miss *split* varies
/// between any two runs — traced or not (verified against the seed by
/// running f8 twice). For SAS we therefore assert what the protocol
/// does guarantee: identical physics and conserved access totals.
#[test]
fn tracing_does_not_perturb_results() {
    for app in [App::Amr, App::NBody] {
        for model in [Model::Mp, Model::Shmem] {
            let base = run(machine(4), app, model, false);
            let traced = run(machine(4), app, model, true);
            assert_eq!(
                (base.sim_time, base.checksum.to_bits(), &base.counters),
                (traced.sim_time, traced.checksum.to_bits(), &traced.counters),
                "{} {}: tracing perturbed a deterministic run",
                app.name(),
                model.name()
            );
            assert!(base.trace.is_none() && traced.trace.is_some());
        }
        let base = run(machine(4), app, Model::Sas, false);
        let traced = run(machine(4), app, Model::Sas, true);
        let (b, t) = (&base.counters, &traced.counters);
        assert_eq!(base.checksum.to_bits(), traced.checksum.to_bits());
        // Each access is exactly one of hit | upgrade | local miss | remote
        // miss; which one can depend on the interleaving, their sum cannot.
        assert_eq!(
            b.cache_hits + b.upgrades + b.misses_local + b.misses_remote,
            t.cache_hits + t.upgrades + t.misses_local + t.misses_remote,
            "{}: the access stream is program-determined",
            app.name()
        );
        assert_eq!((b.barriers, b.lock_acquires), (t.barriers, t.lock_acquires));
    }
}

/// A team-level trace request captures the wait structure of an
/// unbalanced barrier, and pushes the run's trace into the team's sink.
#[test]
fn team_level_tracing_captures_barrier_waits() {
    use parallel::{EventKind, Team};
    let sink = TraceSink::default();
    let run = Team::new(machine(4)).sink(sink.clone()).run(|ctx| {
        ctx.compute(1_000 * (ctx.pe() as u64 + 1));
        ctx.barrier();
        ctx.now()
    });
    assert!(run.is_traced());
    let trace = run.trace();
    trace.validate().expect("well-formed");
    // PEs 0..2 waited on PE 3, the last arriver; each wait edge names it.
    let waits: Vec<_> = trace
        .per_pe
        .iter()
        .flatten()
        .filter(|e| e.kind == EventKind::BarrierWait)
        .collect();
    assert_eq!(waits.len(), 3, "three PEs waited");
    for w in waits {
        assert_eq!(w.dep.map(|d| d.pe), Some(3));
    }
    let stats = o2k_trace::critpath::critical_path(&trace);
    assert_eq!(stats.total, run.sim_time());
    assert_eq!(stats.attributed() + stats.untracked, stats.total);
    assert_eq!(sink.drain(), vec![trace], "the sink holds the run's trace");
    assert!(sink.drain().is_empty(), "draining empties the sink");
}

/// Under the resource fabric, the Perfetto "interconnect" process grows
/// one track per bus/hub resource that carried traffic, alongside the
/// link tracks — the export is name-driven, so this pins the wiring from
/// `NetSim` resource names through `Team::trace` to the JSON.
#[test]
fn fabric_trace_exports_bus_and_hub_tracks() {
    let fabric = Arc::new(Machine::new(
        4,
        MachineConfig {
            contention: machine::ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ));
    let r = run(fabric, App::Amr, Model::Sas, true);
    let trace = r.trace.as_ref().expect("trace collected");
    let json = o2k_trace::chrome::to_chrome_json(trace);
    assert!(json.contains("\"name\":\"interconnect\""));
    for needle in ["bus:node", "hub:rtr", "node0→rtr0"] {
        assert!(json.contains(needle), "missing {needle} track");
    }
}

/// `repro f9 --quick` (driven through the library) archives one
/// Perfetto-loadable trace per app/model cell.
#[test]
fn f9_archives_perfetto_traces() {
    let dir = std::env::temp_dir().join(format!("o2k_f9_test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = o2k_bench::ExpOpts {
        results_dir: dir.clone(),
        ..o2k_bench::ExpOpts::new(true)
    };
    let out = o2k_bench::run_experiment("f9", &opts);
    assert!(out.contains("critical path:"), "f9 output:\n{out}");
    assert!(
        out.contains("per adaptation step"),
        "Counters::diff table missing"
    );
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).expect("f9 out dir") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
            assert!(body.contains("\"traceEvents\""));
            n += 1;
        }
    }
    assert_eq!(n, 6, "one trace per app x model cell");
    let _ = std::fs::remove_dir_all(&dir);
}
