//! The traced run: host time split by layer.
//!
//! Plain and traced passes alternate; the traced passes put spans around
//! the calls the benchmark makes (machine build, each model's entry point).
//! Unit costs of the layers below the entry points are then measured by
//! calling each layer's public functions on the workload's own inputs, and
//! multiplied by the layer's count from the untraced pass to give its share
//! of `wall_s`. A layer that does not run on a workload has count 0 there;
//! its unit cost is still measured (on the same seed's inputs), so every
//! per-layer metric is a real measurement on every workload.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use apps::amr_common::{partition_active, ReplicatedMesh};
use apps::{App, Model, ServeStats};
use machine::Machine;
use mesh::dual::dual_graph;
use nbody::force::accel_range;
use nbody::octree::Octree;
use o2k_serve::hist::LatencyHist;
use o2k_snap::Snapshot;
use parallel::sched::coro::{self, Coro};
use parallel::sched::PeHeap;
use parallel::NetSim;
use sas::cache::{line_tag, Probe};
use sas::CacheSim;

use crate::spans::Spans;
use crate::workload::{
    check_pass, check_repeat, run_pass, snapshot_file, Checks, Inputs, Pass, SnapRole, Workload,
};
use crate::{median, metric, print_digests, Metric};

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Minimum host time of one probe repetition.
const PROBE_MIN_S: f64 = 0.02;

/// splitmix64: the probes' deterministic input stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host nanoseconds per operation: `f` runs a batch and returns its
/// operation count; batches repeat until [`PROBE_MIN_S`] has passed, and
/// the median of [`PROBE_REPS`] such repetitions is returned.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut ops = 0u64;
            while t.elapsed().as_secs_f64() < PROBE_MIN_S {
                ops += f();
            }
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&reps)
}

/// Median host seconds of one call of `f`.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    ns_per_op(|| {
        f();
        1
    }) * 1e-9
}

/// Run `f`, adding its host seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// One replica of the AMR adaptation sequence, as every PE replays it:
/// host seconds in `ReplicatedMesh::adapt`, in `dual_graph`, and in the
/// RCB partition plus PLUM remap (`partition_active`).
fn mesh_replica(inputs: &Inputs) -> [f64; 3] {
    let cfg = &inputs.amr;
    let (mut adapt, mut dual_s, mut rcb) = (0.0, 0.0, 0.0);
    let mut state = ReplicatedMesh::new(cfg);
    let dual = timed(&mut dual_s, || dual_graph(&state.mesh));
    let unowned = vec![0; dual.tris.len()];
    let (parts, _) = timed(&mut rcb, || {
        partition_active(&dual, &unowned, inputs.pes, false)
    });
    let mut owner = vec![0u32; state.mesh.num_tris_total()];
    for (i, &tri) in dual.tris.iter().enumerate() {
        owner[tri as usize] = parts[i];
    }
    for step in 0..cfg.steps {
        black_box(timed(&mut adapt, || state.adapt(cfg, step)));
        for tri in owner.len()..state.mesh.num_tris_total() {
            let p = state
                .mesh
                .parent_of(tri as u32)
                .expect("new triangles have parents");
            owner.push(owner[p as usize]);
        }
        let dual = timed(&mut dual_s, || dual_graph(&state.mesh));
        let inherited: Vec<u32> = dual.tris.iter().map(|&tri| owner[tri as usize]).collect();
        let (parts, _) = timed(&mut rcb, || {
            partition_active(&dual, &inherited, inputs.pes, cfg.use_remap)
        });
        for (i, &tri) in dual.tris.iter().enumerate() {
            owner[tri as usize] = parts[i];
        }
    }
    [adapt, dual_s, rcb]
}

/// Octree build plus a full Barnes-Hut force pass over the seed's bodies.
fn tree_force(inputs: &Inputs) -> f64 {
    let cfg = &inputs.nbody;
    let bodies = cfg.bodies();
    let pos: Vec<_> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<_> = bodies.iter().map(|b| b.mass).collect();
    secs_per_call(|| {
        let tree = Octree::build(&pos, &mass, 4);
        black_box(accel_range(&tree, &pos, 0, pos.len(), cfg.theta, cfg.eps));
    })
}

/// `CacheSim::probe`, plus `insert` on a miss, per access, over a working
/// set the size of the modelled cache.
fn cache_access_ns(machine: &Machine, seed: u64) -> f64 {
    let cfg = &machine.config;
    let mut cache = CacheSim::new(cfg.cache_bytes, cfg.line_bytes, cfg.cache_assoc);
    let lines = (cfg.cache_bytes / cfg.line_bytes) as u64;
    let mut i = 0u64;
    ns_per_op(|| {
        const BATCH: u64 = 4096;
        for _ in 0..BATCH {
            i += 1;
            let tag = line_tag(0, mix(seed ^ i) % lines);
            if let Probe::Miss = cache.probe(tag) {
                black_box(cache.insert(tag, i, false));
            }
        }
        BATCH
    })
}

/// `NetSim::try_route` per transfer between random PEs of the workload's
/// machine, and the hotspot report rendered from the loaded fabric.
fn route_and_report(machine: &Machine, seed: u64) -> (f64, f64) {
    let net = NetSim::new(&machine.topology, &machine.config);
    let pes = machine.pes() as u64;
    let mut i = 0u64;
    let route_ns = ns_per_op(|| {
        const BATCH: u64 = 1024;
        for _ in 0..BATCH {
            i += 1;
            let r = mix(seed ^ i);
            let (src, dst) = ((r % pes) as usize, ((r >> 32) % pes) as usize);
            let route = net.try_route(
                src as u32,
                machine.topology.node_of(src),
                machine.topology.node_of(dst),
                128,
                i * 200,
            );
            black_box(route.expect("a healthy fabric reaches every node"));
        }
        BATCH
    });
    let report_s = secs_per_call(|| {
        black_box(net.hotspot_report(5));
    });
    (route_ns, report_s)
}

/// One `coro` resume/yield round trip with P coroutine stacks resident.
fn switch_ns(pes: usize) -> f64 {
    let rounds = (65_536 / pes).max(64);
    let stack = coro::stack_bytes();
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let mut tasks: Vec<Coro> = (0..pes)
                .map(|_| {
                    Coro::new(stack, move || {
                        for _ in 0..=rounds {
                            coro::yield_current();
                        }
                    })
                })
                .collect();
            // The first resume enters each task; only the steady-state
            // round trips are timed, and the last resume finishes them.
            for t in &mut tasks {
                t.resume();
            }
            let start = Instant::now();
            for _ in 0..rounds {
                for t in &mut tasks {
                    t.resume();
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / (rounds * pes) as f64;
            for t in &mut tasks {
                assert!(t.resume(), "probe task finishes after its rounds");
            }
            ns
        })
        .collect();
    median(&reps)
}

/// One `PeHeap` pick cycle (peek the minimum, reschedule it later) with P
/// PEs scheduled.
fn heap_pick_ns(pes: usize, seed: u64) -> f64 {
    let mut heap = PeHeap::new(pes);
    for pe in 0..pes {
        heap.insert_or_update(pe, mix(seed ^ pe as u64) % 1_000);
    }
    let mut i = 0u64;
    ns_per_op(|| {
        const BATCH: u64 = 4096;
        for _ in 0..BATCH {
            i += 1;
            let (clock, pe) = heap.peek().expect("all PEs scheduled");
            heap.insert_or_update(pe, clock + 500 + mix(seed ^ i) % 1_000);
        }
        BATCH
    })
}

/// `LatencyHist::record` per request, with the merge of P per-PE
/// histograms amortised over the requests, as serving's result assembly
/// does it.
fn hist_ns(inputs: &Inputs, seed: u64) -> f64 {
    let pes = inputs.pes;
    let per_pe = (inputs.serve.requests as usize / pes).max(1);
    ns_per_op(|| {
        let mut merged = LatencyHist::new();
        for pe in 0..pes {
            let mut h = LatencyHist::new();
            for k in 0..per_pe {
                h.record(1_000 + mix(seed ^ (pe * per_pe + k) as u64) % 2_000_000);
            }
            merged.merge(&h);
        }
        black_box(merged.quantile(0.99));
        (pes * per_pe) as u64
    })
}

/// Snapshot codec: encode plus write (`Snapshot::save`) and read plus
/// decode (`Snapshot::load`) of the pass's captured snapshot, or of an
/// empty snapshot on workloads that capture none.
fn snap_codec(snap_dir: &Path, scratch: &Path) -> (f64, f64) {
    let snap = match snapshot_file(snap_dir) {
        Some(p) => Snapshot::load(&p).expect("the captured snapshot loads"),
        None => Snapshot::new(),
    };
    let copy = scratch.join(format!("probe.{}", o2k_snap::EXT));
    let capture_s = secs_per_call(|| snap.save(&copy).expect("snapshot written"));
    let restore_s = secs_per_call(|| {
        black_box(Snapshot::load(&copy).expect("snapshot reloads"));
    });
    let _ = std::fs::remove_file(&copy);
    (capture_s, restore_s)
}

/// Run the traced measurement and return every per-layer metric.
pub fn traced_run(
    wl: Workload,
    inputs: &Inputs,
    seconds: f64,
    snap_dir: &Path,
    spans_out: &Path,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut spans = Spans::on();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Per traced pass: seconds inside each of the SPANNED calls.
    const SPANNED: [&str; 4] = ["apps.mp", "apps.shmem", "apps.sas", "machine.build"];
    let mut span_s: Vec<[f64; 4]> = Vec::new();
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first, so warm-up favours neither.
        let plain_first = plain.len().is_multiple_of(2);
        let run_plain = || run_pass(wl, inputs, wl.cells(), snap_dir, &mut Spans::off());
        let p = plain_first.then(run_plain);
        let mark = spans.len();
        let t = spans.span("pass", |s| run_pass(wl, inputs, wl.cells(), snap_dir, s));
        let p = p.unwrap_or_else(run_plain);
        span_s.push(SPANNED.map(|n| spans.total_s(mark, n)));
        for pass in [&p, &t] {
            check_pass(wl, inputs, pass, checks);
            check_repeat(plain.first().unwrap_or(&p), pass, checks);
        }
        plain.push(p);
        traced.push(t);
    }
    let [mp_s, shmem_s, sas_s, build_s] =
        [0, 1, 2, 3].map(|i| median(&span_s.iter().map(|r| r[i]).collect::<Vec<_>>()));
    let wall_s = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    let pass = &plain[0];
    let c = pass.counters();
    let accesses = c.cache_hits + c.upgrades + c.misses_local + c.misses_remote;
    let requests = pass.requests();
    let cells = pass.cells.len() as f64;

    let seed = inputs.amr.seed;
    let machine = Machine::new(inputs.pes, wl.machine_config());
    let mesh_reps: Vec<[f64; 3]> = (0..PROBE_REPS).map(|_| mesh_replica(inputs)).collect();
    let mesh_s: Vec<f64> = (0..3)
        .map(|i| median(&mesh_reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let tree_force_s = tree_force(inputs);
    let cache_ns = cache_access_ns(&machine, seed);
    let (route_ns, hotspot_s) = route_and_report(&machine, seed);
    let sw_ns = switch_ns(inputs.pes);
    let heap_ns = heap_pick_ns(inputs.pes, seed);
    let h_ns = hist_ns(inputs, seed);
    let serve_stats: Vec<&ServeStats> =
        pass.cells.iter().filter_map(|c| c.serve.as_ref()).collect();
    let render_s = hotspot_s
        + secs_per_call(|| {
            for s in &serve_stats {
                black_box(s.render());
            }
        }) / cells;
    let scratch = spans_out.parent().unwrap_or(Path::new("."));
    let (capture_s, restore_s) = snap_codec(snap_dir, scratch);

    // Layer counts per pass. Every PE of every AMR cell replays the
    // adaptation (a restored cell replays it host-side), and each entry
    // point replays it once more to size its result; the dual graph is
    // rebuilt by every PE of the straight cells, and only the MPI and SHMEM
    // cells partition. Every N-body model does about one tree build and
    // force pass over all bodies per step.
    let (mut adapt_n, mut dual_n, mut rcb_n, mut tree_n) = (0.0, 0.0, 0.0, 0.0);
    let p = inputs.pes as f64;
    for spec in wl.cells() {
        match wl.app() {
            App::Amr => {
                adapt_n += p + 1.0;
                if spec.snap != SnapRole::Restore {
                    dual_n += p;
                }
                if spec.model != Model::Sas {
                    rcb_n += p;
                }
            }
            App::NBody => tree_n += inputs.nbody.steps as f64,
            _ => {}
        }
    }
    let snaps = if pass.snap_bytes > 0 { 1.0 } else { 0.0 };
    let picks = pass.picks() as f64;
    // (layer, count per pass, unit cost, unit of the cost)
    let rows = [
        ("apps.mp", 1.0, mp_s, "s"),
        ("apps.shmem", 1.0, shmem_s, "s"),
        ("apps.sas", 1.0, sas_s, "s"),
        ("mesh.adapt", adapt_n, mesh_s[0], "s"),
        ("mesh.dual", dual_n, mesh_s[1], "s"),
        ("partition.rcb", rcb_n, mesh_s[2], "s"),
        ("nbody.tree_force", tree_n, tree_force_s, "s"),
        ("sas.cache", accesses as f64, cache_ns, "ns"),
        ("net.route", c.net_transfers as f64, route_ns, "ns"),
        ("sched.switch", picks, sw_ns, "ns"),
        ("sched.heap", picks, heap_ns, "ns"),
        ("serve.hist", requests as f64, h_ns, "ns"),
        ("snap.capture", snaps, capture_s, "s"),
        ("snap.restore", snaps, restore_s, "s"),
        ("report.render", cells, render_s, "s"),
        ("machine.build", 1.0, build_s, "s"),
    ];
    println!(
        "\nlayer-share table, {}: count per pass x measured unit cost, as a share of the\n\
         untraced wall_s {wall_s:.4} s (apps.* rows are spans that contain the other rows)",
        wl.name()
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>10} {:>8}",
        "layer", "count/pass", "unit cost", "host s", "share"
    );
    for (layer, count, unit, label) in rows.into_iter().filter(|r| r.1 > 0.0) {
        let host_s = count * unit * if label == "ns" { 1e-9 } else { 1.0 };
        println!(
            "  {layer:<18} {count:>14.0} {unit:>11.4e} {label:<2} {host_s:>10.4} {:>7.2}%",
            100.0 * host_s / wall_s
        );
    }
    println!(
        "  trace overhead: traced pass {traced_s:.4} s - plain pass {wall_s:.4} s = {:.4} s",
        traced_s - wall_s
    );
    if let Err(e) = spans.write_json(spans_out) {
        eprintln!(
            "o2kbench: could not write spans to {}: {e}",
            spans_out.display()
        );
    } else {
        println!("  spans: {}", spans_out.display());
    }

    print_digests("cell", pass);
    let hit_ratio = c.cache_hits as f64 / accesses.max(1) as f64;

    vec![
        metric("sched.picks", picks),
        metric("parallel.barriers", c.barriers as f64),
        metric("parallel.lock_acquires", c.lock_acquires as f64),
        metric("net.transfers", c.net_transfers as f64),
        metric("net.links", c.net_links as f64),
        metric("mp.msgs", c.msgs_sent as f64),
        metric("mp.bytes", c.msg_bytes as f64),
        metric("shmem.puts", c.puts as f64),
        metric("shmem.gets", c.gets as f64),
        metric("shmem.amos", c.amos as f64),
        metric("sas.accesses", accesses as f64),
        metric("sas.hit_ratio", hit_ratio),
        metric("sas.invalidations", c.invalidations as f64),
        metric("serve.requests", requests as f64),
        metric("snap.bytes", pass.snap_bytes as f64),
        metric("apps.mp_s", mp_s),
        metric("apps.shmem_s", shmem_s),
        metric("apps.sas_s", sas_s),
        metric("mesh.adapt_s", mesh_s[0]),
        metric("mesh.dual_s", mesh_s[1]),
        metric("partition.rcb_s", mesh_s[2]),
        metric("nbody.tree_force_s", tree_force_s),
        metric("sas.cache_ns", cache_ns),
        metric("net.route_ns", route_ns),
        metric("sched.switch_ns", sw_ns),
        metric("sched.heap_ns", heap_ns),
        metric("serve.hist_ns", h_ns),
        metric("snap.capture_s", capture_s),
        metric("snap.restore_s", restore_s),
        metric("report.render_s", render_s),
        metric("machine.build_s", build_s),
        metric("trace.overhead_s", traced_s - wall_s),
    ]
}
