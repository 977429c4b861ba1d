//! The reconstructed evaluation suite (DESIGN.md §3): tables T1–T3,
//! figures F1–F8, ablations A1–A6, scheduler study S1.

use std::sync::Arc;

use apps::{AmrConfig, NBodyConfig};
use apps::{App, Model};
use machine::{Machine, MachineConfig};
use mesh::adaptive::AdaptiveMesh;
use mesh::dual::dual_graph;
use o2k_core::figure::{line_chart, stacked_bars};
use o2k_core::table::{cells, ms, render, x2};
use o2k_core::{effort_table, sweep_models, SweepResult};
use partition::{
    diffusion::diffuse, edge_cut, hilbert_partition, imbalance, morton_partition,
    multilevel_partition, rcb_partition, CsrGraph, WeightedPoint,
};
use sas::PagePolicy;

/// All experiment ids, in suite order.
pub const EXPERIMENT_IDS: [&str; 27] = [
    "t1", "t2", "t3", "t4", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "a1", "a2", "a3",
    "a4", "a5", "a6", "s1", "n1", "n2", "n3", "q1", "q2", "e1", "c1",
];

/// Processor sweep used by the figure experiments.
fn sweep_pes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    }
}

fn nbody_cfg(quick: bool) -> NBodyConfig {
    if quick {
        NBodyConfig {
            n: 512,
            steps: 2,
            ..NBodyConfig::default()
        }
    } else {
        NBodyConfig {
            n: 2048,
            steps: 3,
            ..NBodyConfig::default()
        }
    }
}

fn amr_cfg(quick: bool) -> AmrConfig {
    if quick {
        AmrConfig::small()
    } else {
        AmrConfig {
            nx: 32,
            ny: 32,
            steps: 5,
            sweeps: 5,
            ..AmrConfig::default()
        }
    }
}

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

/// Same machine, but with the interconnect contention model switched on.
fn machine_queued(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: machine::ContentionMode::Queued,
            ..MachineConfig::origin2000()
        },
    ))
}

/// Same machine, but with the full contended-resource fabric: links plus
/// per-node SysAD buses and per-router hub arbitration ports.
fn machine_fabric(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: machine::ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ))
}

/// Run one experiment by id; `quick` shrinks problem sizes and sweeps.
///
/// # Panics
/// Panics on an unknown id.
pub fn run_experiment(id: &str, quick: bool) -> String {
    match id {
        "t1" => t1_machine(),
        "t2" => t2_effort(),
        "t3" => t3_partitioners(),
        "t4" => t4_microbench(),
        "f1" => f_speedup(App::NBody, quick),
        "f2" => f_breakdown(App::NBody, quick),
        "f3" => f_speedup(App::Amr, quick),
        "f4" => f_breakdown(App::Amr, quick),
        "f5" => f5_comm_volume(quick),
        "f6" => f6_balance(quick),
        "f7" => f7_traffic_structure(quick),
        "f8" => f8_cache(quick),
        "f9" => f9_critical_path(quick),
        "a1" => a1_paging(quick),
        "a2" => a2_remap(quick),
        "a3" => a3_partitioning(quick),
        "a4" => a4_numa_sensitivity(quick),
        "a5" => a5_hybrid(quick),
        "a6" => a6_self_schedule(quick),
        "s1" => s1_scheduler_policies(quick),
        "n1" => n1_contention(quick),
        "n2" => n2_fault(quick),
        "n3" => n3_bus_saturation(quick),
        "q1" => q1_serving(quick),
        "q2" => q2_mitigation(quick),
        "e1" => e1_scale(quick),
        "c1" => c1_warm_start(quick),
        other => panic!("unknown experiment id {other:?}"),
    }
}

// ---------------------------------------------------------------- tables

fn t1_machine() -> String {
    let c = MachineConfig::origin2000();
    let rows = vec![
        vec!["CPUs per node".into(), format!("{}", c.cpus_per_node)],
        vec![
            "CPU cycle".into(),
            format!("{} ns (250 MHz R10000)", c.cycle_ns),
        ],
        vec!["Cache line".into(), format!("{} B", c.line_bytes)],
        vec![
            "Modelled cache".into(),
            format!("{} MB, {}-way", c.cache_bytes >> 20, c.cache_assoc),
        ],
        vec!["Cache hit".into(), format!("{} ns", c.lat_cache_hit)],
        vec!["Local memory".into(), format!("{} ns", c.lat_local_mem)],
        vec!["Per router hop".into(), format!("{} ns", c.lat_hop)],
        vec!["Directory op".into(), format!("{} ns", c.lat_directory)],
        vec![
            "Link bandwidth".into(),
            format!("{:.2} GB/s", c.bw_bytes_per_ns),
        ],
        vec!["Page size".into(), format!("{} KB", c.page_bytes >> 10)],
        vec![
            "MPI send+recv overhead".into(),
            format!("{} ns", c.mp_send_overhead + c.mp_recv_overhead),
        ],
        vec![
            "SHMEM put overhead".into(),
            format!("{} ns", c.shmem_put_overhead),
        ],
        vec![
            "Barrier cost per tree level".into(),
            format!("{} ns", c.sync_hop),
        ],
    ];
    format!(
        "T1: simulated Origin2000 machine parameters\n\n{}",
        render(&cells(&["parameter", "value"]), &rows)
    )
}

fn t2_effort() -> String {
    let t = effort_table();
    let rows: Vec<Vec<String>> = t
        .iter()
        .map(|r| {
            vec![
                format!("{} / {}", r.app.name(), r.model.name()),
                r.loc.to_string(),
            ]
        })
        .collect();
    format!(
        "T2: programming effort (effective source lines, simulator shims excluded)\n\n{}",
        render(&cells(&["application / model", "LoC"]), &rows)
    )
}

fn t3_partitioners() -> String {
    // Partition an adapted mesh (shock mid-domain) with every partitioner.
    let mut mesh = AdaptiveMesh::structured(32, 32, 1.0, 1.0);
    let cfg = AmrConfig {
        nx: 32,
        ny: 32,
        ..AmrConfig::default()
    };
    for step in 0..3 {
        mesh::indicator::adapt_step(
            &mut mesh,
            &cfg.shock(),
            cfg.front_time(step),
            cfg.refine_band,
            cfg.coarsen_band,
            cfg.max_level,
        );
    }
    let dual = dual_graph(&mesh);
    let pts: Vec<WeightedPoint> = dual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let lists: Vec<Vec<u32>> = (0..dual.len())
        .map(|v| dual.neighbors(v).to_vec())
        .collect();
    let g = CsrGraph::from_lists(&lists, vec![1.0; dual.len()]);
    let nparts = 16;
    let mut rows = Vec::new();
    let mut eval = |name: &str, parts: &[u32]| {
        rows.push(vec![
            name.to_string(),
            edge_cut(&g, parts).to_string(),
            x2(imbalance(&g.vwgt, parts, nparts)),
        ]);
    };
    eval("RCB", &rcb_partition(&pts, nparts));
    eval("Morton SFC", &morton_partition(&pts, nparts));
    eval("Hilbert SFC", &hilbert_partition(&pts, nparts));
    eval("Multilevel (MeTiS-lite)", &multilevel_partition(&g, nparts));
    // A stale partition: computed on the *base* mesh and inherited through
    // the adaptation (what a non-repartitioning code would run with) —
    // then repaired locally by diffusion instead of a global repartition.
    let base = AdaptiveMesh::structured(32, 32, 1.0, 1.0);
    let bdual = dual_graph(&base);
    let bpts: Vec<WeightedPoint> = bdual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let bparts = rcb_partition(&bpts, nparts);
    let mut bowner = vec![0u32; base.num_tris_total()];
    for (i, &t) in bdual.tris.iter().enumerate() {
        bowner[t as usize] = bparts[i];
    }
    // Inherit through the hierarchy: children take the parent's part.
    let mut stale: Vec<u32> = dual
        .tris
        .iter()
        .map(|&t| {
            let mut cur = t;
            loop {
                if (cur as usize) < bowner.len() {
                    return bowner[cur as usize];
                }
                cur = mesh.parent_of(cur).expect("new tris trace to base");
            }
        })
        .collect();
    eval("stale (inherited)", &stale);
    diffuse(&g, &mut stale, nparts, 1.05, 200);
    eval("stale + diffusion", &stale);
    format!(
        "T3: partitioner quality on an adapted mesh ({} active triangles, {} parts)\n\n{}",
        dual.len(),
        nparts,
        render(&cells(&["partitioner", "edge cut", "imbalance"]), &rows)
    )
}

fn t4_microbench() -> String {
    // The communication-parameter table every paper of the era includes,
    // *measured* on the simulated machine by running the primitives —
    // a self-validation that the runtimes charge what the model says.
    use mp::{MpWorld, RecvSpec};
    use parallel::Team;
    use sas::SasWorld;
    use shmem::SymWorld;

    let p = 16;
    let m = machine(p);
    let mut rows = Vec::new();

    // Two-sided round trip / 2 for varying sizes, ranks 0 <-> p-1.
    let mpw = MpWorld::new(Arc::clone(&m));
    for bytes in [8usize, 1024, 65_536] {
        let words = bytes / 8;
        let run = Team::new(Arc::clone(&m)).run(|ctx| {
            let reps = 10u64;
            let t0 = ctx.now();
            for _ in 0..reps {
                if ctx.pe() == 0 {
                    mpw.send_vec(ctx, p - 1, 1, vec![0u64; words]);
                    let _ = mpw.recv::<u64>(ctx, RecvSpec::from(p - 1, 2));
                } else if ctx.pe() == p - 1 {
                    let (_, _, d) = mpw.recv::<u64>(ctx, RecvSpec::from(0, 1));
                    mpw.send_vec(ctx, 0, 2, d);
                }
            }
            (ctx.now() - t0) / (2 * reps)
        });
        rows.push(vec![
            format!("MPI one-way, {bytes} B"),
            format!("{} ns", run.results[0]),
        ]);
    }

    // One-sided put / get for the same span.
    let shw = SymWorld::new(Arc::clone(&m));
    for bytes in [8usize, 1024, 65_536] {
        let words = bytes / 8;
        let run = Team::new(Arc::clone(&m)).run(|ctx| {
            let sym = shw.alloc::<u64>(ctx, words.max(1));
            let reps = 10u64;
            let data = vec![0u64; words];
            let t0 = ctx.now();
            if ctx.pe() == 0 {
                for _ in 0..reps {
                    sym.put(ctx, p - 1, 0, &data);
                }
            }
            let put_ns = (ctx.now() - t0) / reps;
            let t1 = ctx.now();
            if ctx.pe() == 0 {
                for _ in 0..reps {
                    let _ = sym.get(ctx, p - 1, 0, words.max(1));
                }
            }
            (put_ns, (ctx.now() - t1) / reps)
        });
        let (put_ns, get_ns) = run.results[0];
        rows.push(vec![
            format!("SHMEM put / get, {bytes} B"),
            format!("{put_ns} / {get_ns} ns"),
        ]);
    }

    // SAS remote line fetch: PE p-1 reads a line homed on node 0.
    let sasw = SasWorld::new(Arc::clone(&m));
    let run = Team::new(Arc::clone(&m)).run(|ctx| {
        let sh = sasw.alloc::<u64>(ctx, 1024);
        let mut pe = sasw.pe();
        if ctx.pe() == 0 {
            sh.home_pages(ctx, 0, 1024);
            pe.write(ctx, &sh, 0, 1);
        }
        sasw.barrier(ctx);
        let t0 = ctx.now();
        let _ = pe.read(ctx, &sh, 0);
        ctx.now() - t0
    });
    rows.push(vec![
        "CC-SAS remote dirty-line fetch".into(),
        format!("{} ns", run.results[p - 1]),
    ]);

    // Barrier costs vs team size.
    for pes in [4usize, 16, 64] {
        let mb = machine(pes);
        let run = Team::new(mb).run(|ctx| {
            let reps = 10u64;
            let t0 = ctx.now();
            for _ in 0..reps {
                ctx.barrier();
            }
            (ctx.now() - t0) / reps
        });
        rows.push(vec![
            format!("barrier, P={pes}"),
            format!("{} ns", run.results[0]),
        ]);
    }

    format!(
        "T4: measured communication parameters on the simulated Origin2000
(P={p}, ranks 0 and {} are {} hops apart)

{}
Measured by timing the actual runtime primitives in virtual time — the
microbenchmark table of the era, doubling as a model self-check.
",
        p - 1,
        m.hops_between(0, p - 1),
        render(&cells(&["operation", "cost"]), &rows)
    )
}

// ---------------------------------------------------------------- figures

fn do_sweep(app: App, quick: bool) -> SweepResult {
    sweep_models(
        app,
        &Model::ALL,
        &sweep_pes(quick),
        &nbody_cfg(quick),
        &amr_cfg(quick),
    )
}

fn f_speedup(app: App, quick: bool) -> String {
    let sweep = do_sweep(app, quick);
    let id = if app == App::NBody { "F1" } else { "F3" };
    let mut rows = Vec::new();
    for (pi, &p) in sweep.pes.iter().enumerate() {
        let mut row = vec![p.to_string()];
        for s in &sweep.series {
            row.push(ms(s.runs[pi].sim_time));
        }
        for s in &sweep.series {
            row.push(x2(s.speedups()[pi]));
        }
        rows.push(row);
    }
    let header = cells(&[
        "P",
        "MPI ms",
        "SHMEM ms",
        "CC-SAS ms",
        "MPI spd",
        "SHMEM spd",
        "CC-SAS spd",
    ]);
    let chart_series: Vec<(&str, Vec<f64>)> = sweep
        .series
        .iter()
        .map(|s| (s.model.name(), s.speedups()))
        .collect();
    format!(
        "{id}: {} simulated execution time and speedup vs processors\n\n{}\n{}",
        app.name(),
        render(&header, &rows),
        line_chart(
            &format!("{} speedup", app.name()),
            &sweep.pes,
            &chart_series,
            12
        )
    )
}

fn f_breakdown(app: App, quick: bool) -> String {
    let id = if app == App::NBody { "F2" } else { "F4" };
    let p = if quick { 8 } else { 32 };
    let m = machine(p);
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let runs: Vec<_> = Model::ALL
        .iter()
        .map(|&model| apps::run_app(Arc::clone(&m), app, model, &nb, &am))
        .collect();
    let labels: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
    let fractions: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let (b, l, rm, s) = r.breakdown().fractions();
            vec![b, l, rm, s]
        })
        .collect();
    let mut rows = Vec::new();
    for (r, model) in runs.iter().zip(&labels) {
        let bd = r.breakdown();
        rows.push(vec![
            model.to_string(),
            ms(r.sim_time),
            ms(bd.busy / p as u64),
            ms(bd.local / p as u64),
            ms(bd.remote / p as u64),
            ms(bd.sync / p as u64),
        ]);
    }
    format!(
        "{id}: {} execution-time breakdown at P={p} (per-PE average, ms)\n\n{}\n{}",
        app.name(),
        render(
            &cells(&["model", "total", "busy", "local", "remote", "sync"]),
            &rows
        ),
        stacked_bars(
            "time fractions",
            &labels,
            &["busy", "local", "remote", "sync"],
            &fractions,
            48
        )
    )
}

fn f5_comm_volume(quick: bool) -> String {
    let mut out = String::from("F5: communication volume vs processors (KB total)\n");
    for app in [App::NBody, App::Amr] {
        let sweep = do_sweep(app, quick);
        out.push('\n');
        out.push_str(&format!("{}:\n", app.name()));
        let mut rows = Vec::new();
        for (pi, &p) in sweep.pes.iter().enumerate() {
            let mut row = vec![p.to_string()];
            for s in &sweep.series {
                let c = &s.runs[pi].counters;
                let line = MachineConfig::origin2000().line_bytes;
                let bytes = c.explicit_comm_bytes() + c.implicit_comm_bytes(line);
                row.push(format!("{}", bytes / 1024));
            }
            rows.push(row);
        }
        out.push_str(&render(&cells(&["P", "MPI", "SHMEM", "CC-SAS"]), &rows));
    }
    out.push_str(
        "\nMPI/SHMEM volume is explicit message/put/get payload; CC-SAS volume is\nremote cache-line fills (misses × 128 B).\n",
    );
    out
}

fn f6_balance(quick: bool) -> String {
    let cfg = amr_cfg(quick);
    let p = if quick { 8 } else { 16 };
    let with = apps::amr_common::balance_series(&cfg, p);
    let no_cfg = AmrConfig {
        use_remap: false,
        ..cfg.clone()
    };
    let without = apps::amr_common::balance_series(&no_cfg, p);
    let mut rows = Vec::new();
    for (step, (w, n)) in with.iter().zip(&without).enumerate() {
        rows.push(vec![
            step.to_string(),
            x2(w.0),
            x2(w.1),
            format!("{:.0}", w.2),
            format!("{:.0}", w.3),
            format!("{:.0}", n.2),
            format!("{:.0}", n.3),
        ]);
    }
    format!(
        "F6: AMR load balance and data movement per adaptation step (P={p})\n\n{}\nimb-before: imbalance inherited after adaptation; imb-after: after\nrepartitioning. TotalV/MaxV: elements moved (PLUM metrics), with remapping\nvs without.\n",
        render(
            &cells(&[
                "step",
                "imb-before",
                "imb-after",
                "TotalV(remap)",
                "MaxV(remap)",
                "TotalV(none)",
                "MaxV(none)"
            ]),
            &rows
        )
    )
}

fn f7_traffic_structure(quick: bool) -> String {
    let p = if quick { 8 } else { 16 };
    let m = machine(p);
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let mut out = String::from(
        "F7: traffic structure at P=16 — message-size histogram (MPI) and\none-sided operation counts (SHMEM)\n",
    );
    for app in [App::NBody, App::Amr] {
        let mp = apps::run_app(Arc::clone(&m), app, Model::Mp, &nb, &am);
        let sh = apps::run_app(Arc::clone(&m), app, Model::Shmem, &nb, &am);
        out.push('\n');
        out.push_str(&format!("{}:\n", app.name()));
        let h = mp.counters.msg_size_hist;
        let rows = vec![
            vec!["MPI messages".into(), mp.counters.msgs_sent.to_string()],
            vec!["  <64 B".into(), h[0].to_string()],
            vec!["  64-511 B".into(), h[1].to_string()],
            vec!["  512 B-4 KB".into(), h[2].to_string()],
            vec!["  4-32 KB".into(), h[3].to_string()],
            vec!["  >32 KB".into(), h[4].to_string()],
            vec!["SHMEM puts".into(), sh.counters.puts.to_string()],
            vec!["SHMEM gets".into(), sh.counters.gets.to_string()],
            vec!["SHMEM atomics".into(), sh.counters.amos.to_string()],
        ];
        out.push_str(&render(&cells(&["metric", "count"]), &rows));
    }
    out
}

fn f8_cache(quick: bool) -> String {
    let mut out = String::from("F8: CC-SAS cache behaviour vs processors\n");
    for app in [App::NBody, App::Amr] {
        let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
        out.push('\n');
        out.push_str(&format!("{}:\n", app.name()));
        let mut rows = Vec::new();
        for &p in &sweep_pes(quick) {
            let r = apps::run_app(machine(p), app, Model::Sas, &nb, &am);
            rows.push(vec![
                p.to_string(),
                format!("{:.4}", r.counters.miss_ratio()),
                format!("{:.3}", r.counters.remote_miss_fraction()),
                r.counters.invalidations.to_string(),
            ]);
        }
        out.push_str(&render(
            &cells(&["P", "miss ratio", "remote fraction", "invalidations"]),
            &rows,
        ));
    }
    out
}

fn f9_critical_path(quick: bool) -> String {
    // Event tracing plus critical-path analysis: where does the end-to-end
    // simulated time actually go, for each application under each model?
    // Traces are archived as Perfetto-loadable Chrome JSON next to the
    // text outputs.
    let p = if quick { 8 } else { 32 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let out_dir = std::env::var("O2K_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let _ = std::fs::create_dir_all(&out_dir);

    let was_enabled = o2k_trace::enabled();
    o2k_trace::set_enabled(true);

    let mut out = format!(
        "F9: event traces and critical-path analysis at P={p}\n\
         (open the archived .trace.json files in https://ui.perfetto.dev)\n"
    );
    for app in [App::Amr, App::NBody] {
        for model in Model::ALL {
            let r = apps::run_app(machine(p), app, model, &nb, &am);
            let trace = r.trace.as_ref().expect("tracing was enabled");
            let slug = format!(
                "f9_{}_{}",
                app.name().to_lowercase().replace('-', ""),
                model.name().to_lowercase().replace(['-', '+'], "")
            );
            let path = format!("{out_dir}/{slug}.trace.json");
            std::fs::write(&path, o2k_trace::chrome::to_chrome_json(trace))
                .expect("write trace json");
            let stats = o2k_trace::critpath::critical_path(trace);
            out.push_str(&format!(
                "\n--- {} / {} — {} events across {} PEs, archived to {path}\n",
                app.name(),
                model.name(),
                trace.total_events(),
                trace.pes(),
            ));
            out.push_str(&o2k_trace::critpath::render_table(&stats));
            // One terminal timeline for the headline case (AMR under MPI:
            // the send/recv storms are visible to the naked eye).
            if matches!((app, model), (App::Amr, Model::Mp)) {
                out.push_str(&o2k_trace::chrome::text_timeline(trace, 72));
            }
        }
    }

    // Per-adaptation-step communication deltas (Counters::diff): rerun the
    // MPI AMR with a growing step budget and difference the running totals.
    // Run on a contention-enabled machine so the network-queueing column is
    // live — it attributes queueing delay to the step that incurred it.
    out.push_str(
        "\nAMR / MPI communication per adaptation step (cumulative-run deltas,\ncontention model on):\n",
    );
    let mut rows = Vec::new();
    let mut prev = machine::Counters::new();
    let mut phase_report = String::new();
    for k in 1..=am.steps {
        let cfg = apps::AmrConfig {
            steps: k,
            ..am.clone()
        };
        let r = apps::amr_mp::run(machine_queued(p), &cfg);
        // These are totals from *separate* runs, not snapshots of one run:
        // the k-step run's final sync moves different-sized messages than
        // the (k-1)-step run's, so only the aggregate fields printed here
        // are monotone across the series (Counters::diff is for same-run
        // snapshots and insists on full monotonicity).
        rows.push(vec![
            k.to_string(),
            r.counters
                .msgs_sent
                .saturating_sub(prev.msgs_sent)
                .to_string(),
            format!(
                "{}",
                r.counters.msg_bytes.saturating_sub(prev.msg_bytes) / 1024
            ),
            r.counters
                .barriers
                .saturating_sub(prev.barriers)
                .to_string(),
            format!(
                "{}",
                r.counters.net_queued_ns.saturating_sub(prev.net_queued_ns) / 1000
            ),
        ]);
        prev = r.counters;
        if k == am.steps {
            phase_report = r.net_report.clone().expect("queued run renders hotspots");
        }
    }
    out.push_str(&render(
        &cells(&["step", "msgs", "KB", "barriers", "net queue µs"]),
        &rows,
    ));
    // Per-phase link hotspots from the final run: the applications mark
    // sync/adapt/remap/solve, so queueing delay is attributed to the
    // algorithmic phase that incurred it.
    out.push_str(&format!(
        "\nAMR / MPI link hotspots by phase ({}-step run):\n{phase_report}",
        am.steps
    ));

    if !was_enabled {
        o2k_trace::set_enabled(false);
    }
    // The runs above also pushed their traces to the process-wide sink;
    // they are archived already, so drop them.
    let _ = o2k_trace::sink_drain();
    out
}

// -------------------------------------------------------------- ablations

fn a1_paging(quick: bool) -> String {
    let p = if quick { 8 } else { 16 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let mut rows = Vec::new();
    for (name, policy) in [
        ("first-touch", PagePolicy::FirstTouch),
        ("round-robin", PagePolicy::RoundRobin),
    ] {
        let n = apps::nbody_sas::run_with_paging(machine(p), &nb, policy);
        let a = apps::amr_sas::run_with_paging(machine(p), &am, policy);
        rows.push(vec![
            name.to_string(),
            ms(n.sim_time),
            format!("{:.3}", n.counters.remote_miss_fraction()),
            ms(a.sim_time),
            format!("{:.3}", a.counters.remote_miss_fraction()),
        ]);
    }
    format!(
        "A1: CC-SAS page-placement ablation at P={p}\n\n{}\nFirst touch matters where ownership is address-contiguous (AMR); the\nirregular N-body working set defeats both policies equally (the SPLASH-era\nfinding).\n",
        render(
            &cells(&["paging", "N-body ms", "N-body remote", "AMR ms", "AMR remote"]),
            &rows
        )
    )
}

fn a2_remap(quick: bool) -> String {
    let p = if quick { 8 } else { 16 };
    let base = amr_cfg(quick);
    let mut rows = Vec::new();
    for (name, use_remap) in [("with PLUM remap", true), ("without remap", false)] {
        let cfg = AmrConfig {
            use_remap,
            ..base.clone()
        };
        let r = apps::amr_mp::run(machine(p), &cfg);
        let moved: f64 = apps::amr_common::balance_series(&cfg, p)
            .iter()
            .map(|s| s.2)
            .sum();
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            format!("{moved:.0}"),
        ]);
    }
    format!(
        "A2: PLUM remapping ablation (MPI AMR, P={p})\n\n{}",
        render(
            &cells(&["configuration", "time ms", "elements moved"]),
            &rows
        )
    )
}

fn a3_partitioning(quick: bool) -> String {
    // Load-balance quality of costzones (SAS) vs ORB (MP): spread of busy
    // time across PEs.
    let p = if quick { 8 } else { 16 };
    let nb = nbody_cfg(quick);
    let am = amr_cfg(quick);
    let mut rows = Vec::new();
    for model in [Model::Sas, Model::Mp] {
        let r = apps::run_app(machine(p), App::NBody, model, &nb, &am);
        let busy: Vec<f64> = r.per_pe.iter().map(|b| b.busy as f64).collect();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let scheme = if model == Model::Sas {
            "costzones"
        } else {
            "ORB"
        };
        rows.push(vec![
            format!("{} ({})", model.name(), scheme),
            ms(r.sim_time),
            x2(max / mean),
        ]);
    }
    format!(
        "A3: N-body work partitioning — costzones vs ORB at P={p}\n\n{}\nbusy max/mean = 1.00 is perfect compute balance.\n",
        render(&cells(&["model (scheme)", "time ms", "busy max/mean"]), &rows)
    )
}

fn a4_numa_sensitivity(quick: bool) -> String {
    // Extension beyond the paper: how does the model ranking depend on the
    // machine's NUMA remoteness? Scale the per-hop latency and re-run the
    // AMR comparison at fixed P.
    let p = if quick { 8 } else { 16 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let base = MachineConfig::origin2000();
    let mut rows = Vec::new();
    for factor in [0u64, 1, 4, 16] {
        let cfg = MachineConfig {
            lat_hop: base.lat_hop * factor,
            ..base.clone()
        };
        let m = Arc::new(Machine::new(p, cfg));
        let mut row = vec![format!("{}x ({} ns/hop)", factor, base.lat_hop * factor)];
        for model in Model::ALL {
            let r = apps::run_app(Arc::clone(&m), App::Amr, model, &nb, &am);
            row.push(ms(r.sim_time));
        }
        rows.push(row);
    }
    format!(
        "A4 (extension): NUMA remoteness sensitivity — AMR at P={p}, scaling the
per-hop network latency

{}
MPI's cost is dominated by per-message *software* overhead, so it is nearly
flat in hop latency. The fine-grained models — SHMEM puts and CC-SAS line
fills — are the latency-sensitive ones: their advantage is largest on a
flat machine (0x) and erodes as remoteness grows, until at 16x the ranking
*inverts* and bulk message passing wins. This is precisely the mechanism
behind the follow-up papers' cluster results: take away cheap hardware
fine-grained access and MPI becomes competitive again.
",
        render(
            &cells(&["hop latency", "MPI ms", "SHMEM ms", "CC-SAS ms"]),
            &rows
        )
    )
}

fn a5_hybrid(quick: bool) -> String {
    // Extension: the follow-up papers' hybrid (MP between nodes, SAS
    // within) against the three pure models, on the stock machine and on a
    // deep-NUMA variant where fine-grained remote access is expensive.
    let p = if quick { 8 } else { 16 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let mut rows = Vec::new();
    for app in [App::NBody, App::Amr] {
        for (label, cfg) in [
            ("Origin2000", MachineConfig::origin2000()),
            ("cluster of SMPs", MachineConfig::cluster_of_smps()),
        ] {
            let m = Arc::new(Machine::new(p, cfg));
            let mut row = vec![format!("{} / {}", app.name(), label)];
            for model in Model::WITH_HYBRID {
                let r = apps::run_app(Arc::clone(&m), app, model, &nb, &am);
                row.push(ms(r.sim_time));
            }
            rows.push(row);
        }
    }
    // Re-run the same four cells on the contended-resource fabric: every
    // transfer now also arbitrates for its node buses and hub ports, which
    // penalises the fine-grained models' many small transfers more than the
    // hybrid's batched leader messages.
    let mut frows = Vec::new();
    for app in [App::NBody, App::Amr] {
        for (label, cfg) in [
            ("Origin2000", MachineConfig::origin2000()),
            ("cluster of SMPs", MachineConfig::cluster_of_smps()),
        ] {
            let m = Arc::new(Machine::new(
                p,
                MachineConfig {
                    contention: machine::ContentionMode::Fabric,
                    ..cfg
                },
            ));
            let mut row = vec![format!("{} / {}", app.name(), label)];
            for model in Model::WITH_HYBRID {
                let r = apps::run_app(Arc::clone(&m), app, model, &nb, &am);
                row.push(ms(r.sim_time));
            }
            frows.push(row);
        }
    }
    format!(
        "A5 (extension): hybrid MPI+SAS vs the pure models at P={p}\n\n{}\nThe hybrid keeps all data in per-node (page-aligned) shared segments and\nbatches every cross-node byte into leader messages — zero cross-node\ncoherence by construction. It is the fastest model in three of the four\ncells: both applications on the Origin2000, and AMR on the cluster, where\nthe pure fine-grained models are 2-4x slower. Only cluster N-body goes to\npure MPI, whose per-PE essential-tree exchange avoids the hybrid's\nnode-leader serialisation — the intra-node Amdahl effect the follow-up\npapers also observed.\n\nSame cells on the contended-resource fabric (links + node buses + hub\nports, ContentionMode::Fabric):\n\n{}\nBus and hub arbitration taxes per-transfer models hardest; the ranking\nabove is unchanged, but the fine-grained columns move more than the\nhybrid's, widening its margin.\n",
        render(
            &cells(&["workload / machine", "MPI ms", "SHMEM ms", "CC-SAS ms", "MPI+SAS ms"]),
            &rows
        ),
        render(
            &cells(&["workload / machine", "MPI ms", "SHMEM ms", "CC-SAS ms", "MPI+SAS ms"]),
            &frows
        )
    )
}

fn a6_self_schedule(quick: bool) -> String {
    // Ablation: the classic SAS self-scheduled loop (chunks claimed from a
    // shared counter) vs the static block schedule, for the CC-SAS AMR.
    let p = if quick { 8 } else { 16 };
    let base = amr_cfg(quick);
    let mut rows = Vec::new();
    for (name, dynamic) in [
        ("static blocks", false),
        ("self-scheduled (chunk 32)", true),
    ] {
        let cfg = AmrConfig {
            sas_self_schedule: dynamic,
            ..base.clone()
        };
        // Pin the claim order with the deterministic scheduler so the row
        // is exactly reproducible (claiming is a genuine fetch-add race;
        // see `apps::amr_sas`).
        let r = apps::amr_sas::run_with(
            machine(p),
            &cfg,
            PagePolicy::FirstTouch,
            Some(parallel::SchedPolicy::Det),
        );
        let busy: Vec<f64> = r.per_pe.iter().map(|b| b.busy as f64).collect();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            x2(max / mean),
            r.counters.invalidations.to_string(),
            format!("{:.3}", r.counters.remote_miss_fraction()),
        ]);
    }
    format!(
        "A6 (ablation): CC-SAS sweep scheduling at P={p}\n\n{}\nWith near-uniform per-element work, self-scheduling buys no balance (both\nschedules sit at busy max/mean ~1.0) and pays extra invalidation\ntraffic for the shared cursor line — so the static block schedule is the\nright default, exactly the trade-off the SPLASH-era codes tuned by hand.\n(Chunks are claimed by real fetch-adds under the deterministic\nvirtual-time schedule; `repro a6 --sched os` shows the free-running\nvariant. See `apps::amr_sas` and S1.)\n",
        render(
            &cells(&["schedule", "time ms", "busy max/mean", "invalidations", "remote frac"]),
            &rows
        )
    )
}

fn s1_scheduler_policies(quick: bool) -> String {
    use parallel::SchedPolicy;
    // Scheduler study: the same self-scheduled CC-SAS AMR under every
    // scheduling policy. Deterministic runs repeat bitwise (same schedule
    // fingerprint, same times); exploration seeds pick distinct
    // interleavings; the physics checksum never moves.
    let p = if quick { 4 } else { 8 };
    let cfg = AmrConfig {
        sas_self_schedule: true,
        ..AmrConfig::small()
    };
    let go = |policy: SchedPolicy| {
        apps::amr_sas::run_with(machine(p), &cfg, PagePolicy::FirstTouch, Some(policy))
    };
    let det_a = go(SchedPolicy::Det);
    let det_b = go(SchedPolicy::Det);
    assert_eq!(det_a.sim_time, det_b.sim_time, "det must repeat bitwise");
    assert_eq!(det_a.sched, det_b.sched, "det must repeat the schedule");
    let mut rows = Vec::new();
    let mut fingerprints = Vec::new();
    let mut checksums = Vec::new();
    for (name, r) in [
        ("det (run 1)", &det_a),
        ("det (run 2)", &det_b),
        ("explore:1", &go(SchedPolicy::Explore { seed: 1 })),
        ("explore:2", &go(SchedPolicy::Explore { seed: 2 })),
        (
            "bp:1:64",
            &go(SchedPolicy::BoundedPreempt {
                seed: 1,
                budget: 64,
            }),
        ),
    ] {
        let s = r.sched.expect("cooperative policies report stats");
        fingerprints.push(s.fingerprint);
        checksums.push(r.checksum);
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            r.counters.sched_handoffs.to_string(),
            format!("{:016x}", s.fingerprint),
        ]);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "the answer must be schedule-independent"
    );
    let distinct = {
        let mut f = fingerprints.clone();
        f.sort_unstable();
        f.dedup();
        f.len()
    };
    format!(
        "S1: scheduling policies on self-scheduled CC-SAS AMR at P={p}\n\n{}\nThe two det rows are bitwise identical (one schedule, one fingerprint);\nthe exploration rows each replay a distinct seeded interleaving\n({distinct} distinct fingerprints across {total} cooperative runs) while\nthe physics checksum is identical in every row — the Jacobi answer is\nbarrier-separated, only times and traffic move with the schedule.\n",
        render(
            &cells(&["policy", "time ms", "handoffs", "schedule fingerprint"]),
            &rows
        ),
        total = fingerprints.len(),
    )
}

fn n1_contention(quick: bool) -> String {
    use machine::ContentionMode;
    use mp::MpWorld;
    use parallel::Team;
    use sas::SasWorld;

    // Contention sweep: the same traffic on the analytic (uncontended)
    // machine and on the queueing interconnect model. Each transfer is
    // routed hop-by-hop over the hypercube; a busy link delays it, so
    // concentrated traffic pays where the analytic model charges a
    // load-independent latency.
    let pes: Vec<usize> = if quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 32, 64]
    };
    let mach = |p: usize, mode: ContentionMode| -> Arc<Machine> {
        match mode {
            ContentionMode::Off => machine(p),
            ContentionMode::Queued => machine_queued(p),
            ContentionMode::Fabric => machine_fabric(p),
        }
    };

    // (a) MPI personalised all-to-all: every PE sends a chunk to every
    // other PE — the bisection-stressing pattern.
    let words = if quick { 512 } else { 2048 };
    let alltoall = |p: usize, mode: ContentionMode| {
        let m = mach(p, mode);
        let mpw = MpWorld::new(Arc::clone(&m));
        Team::new(Arc::clone(&m)).run(move |ctx| {
            let sends: Vec<Vec<u64>> = (0..p).map(|_| vec![7u64; words]).collect();
            let r = mpw.alltoallv(ctx, sends);
            r.len() as u64
        })
    };

    // (b) CC-SAS hotspot: every PE reads lines homed (and dirtied) on
    // node 0, so every fill converges on node 0's router ports.
    let lines = 256usize; // 16 u64 per 128 B line
    let hotspot = |p: usize, mode: ContentionMode| {
        let m = mach(p, mode);
        let sasw = SasWorld::new(Arc::clone(&m));
        Team::new(Arc::clone(&m)).run(move |ctx| {
            let sh = sasw.alloc::<u64>(ctx, lines * 16);
            let mut pe = sasw.pe();
            if ctx.pe() == 0 {
                sh.home_pages(ctx, 0, lines * 16);
                for l in 0..lines {
                    pe.write(ctx, &sh, l * 16, l as u64);
                }
            }
            sasw.barrier(ctx);
            let mut acc = 0u64;
            for l in 0..lines {
                acc = acc.wrapping_add(pe.read(ctx, &sh, l * 16));
            }
            acc
        })
    };

    let mut out =
        String::from("N1: interconnect contention sweep — analytic (off) vs queueing (queued)\n");
    let mut queued_series: Vec<(&str, Vec<u64>)> = Vec::new();
    let a2a_label = format!("MPI all-to-all, {} B chunks", words * 8);
    let hot_label = format!("CC-SAS hotspot, {lines} lines homed on node 0");
    for (name, bench) in [
        (
            a2a_label.as_str(),
            &alltoall as &dyn Fn(usize, ContentionMode) -> parallel::TeamRun<u64>,
        ),
        (hot_label.as_str(), &hotspot),
    ] {
        let mut rows = Vec::new();
        let mut qns = Vec::new();
        for &p in &pes {
            let off = bench(p, ContentionMode::Off);
            let q = bench(p, ContentionMode::Queued);
            assert!(off.net.is_none(), "off mode must not build a NetSim");
            let stats = q
                .net
                .as_ref()
                .expect("queued mode reports NetStats")
                .stats();
            assert!(
                q.sim_time() >= off.sim_time(),
                "{name}: queueing can only add delay (P={p})"
            );
            qns.push(stats.queued_ns);
            rows.push(vec![
                p.to_string(),
                ms(off.sim_time()),
                ms(q.sim_time()),
                x2(q.sim_time() as f64 / off.sim_time().max(1) as f64),
                format!("{}", stats.queued_ns / 1000),
                stats.active_links.to_string(),
                format!("{}", stats.max_link_queued_ns / 1000),
            ]);
        }
        // The acceptance property: queueing delay grows with P.
        assert!(
            qns.windows(2).all(|w| w[0] <= w[1]) && qns[qns.len() - 1] > qns[0],
            "{name}: total queueing delay must grow with P ({qns:?})"
        );
        out.push('\n');
        out.push_str(&format!("{name}:\n"));
        out.push_str(&render(
            &cells(&[
                "P",
                "off ms",
                "queued ms",
                "slowdown",
                "queue µs",
                "links hit",
                "worst link µs",
            ]),
            &rows,
        ));
        queued_series.push((name, qns));
    }
    let chart: Vec<(&str, Vec<f64>)> = queued_series
        .iter()
        .map(|(n, v)| (*n, v.iter().map(|&x| x as f64 / 1000.0).collect()))
        .collect();
    out.push('\n');
    out.push_str(&line_chart("total queueing delay (µs)", &pes, &chart, 10));

    // (c) Both applications under all three models, off vs queued, at a
    // fixed P: how much does the analytic model understate by ignoring
    // contention on real adaptive traffic?
    let p = if quick { 8 } else { 32 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let mut rows = Vec::new();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let off = apps::run_app(machine(p), app, model, &nb, &am);
            let q = apps::run_app(machine_queued(p), app, model, &nb, &am);
            let s = q.net.expect("queued run reports NetStats");
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(off.sim_time),
                ms(q.sim_time),
                x2(q.sim_time as f64 / off.sim_time.max(1) as f64),
                format!("{}", s.queued_ns / 1000),
            ]);
        }
    }
    out.push_str(&format!(
        "\nApplications at P={p}, off vs queued:\n{}",
        render(
            &cells(&["workload", "off ms", "queued ms", "slowdown", "queue µs"]),
            &rows
        )
    ));

    // Hotspot anatomy at the largest swept P: per-link occupancy report and
    // utilization histogram from the CC-SAS hotspot run.
    let top_p = *pes.last().expect("sweep is non-empty");
    let q = hotspot(top_p, ContentionMode::Queued);
    let net = q.net.as_ref().expect("queued mode reports NetStats");
    let hist = net.utilization_hist(q.sim_time());
    out.push_str(&format!(
        "\nCC-SAS hotspot anatomy at P={top_p}:\n{}\nlink utilization histogram (busy fraction deciles, links per bin):\n  {:?}\n\
         The hot links are node 0's router ports — every fill crosses them,\n\
         so their occupancy, not the per-hop latency, sets the service rate.\n",
        net.hotspot_report(5),
        hist,
    ));

    // (d) The same applications on the full resource fabric (links + node
    // buses + hub ports): how much the link-only queueing model still
    // understates, and where the extra delay accrues by resource kind.
    let mut rows = Vec::new();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let q = apps::run_app(machine_queued(p), app, model, &nb, &am);
            let f = apps::run_app(machine_fabric(p), app, model, &nb, &am);
            assert_eq!(f.checksum, q.checksum, "fabric changed physics");
            let s = f.net.as_ref().expect("fabric run reports NetStats");
            assert!(
                s.bus.transfers > 0,
                "fabric runs must arbitrate for node buses"
            );
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(q.sim_time),
                ms(f.sim_time),
                x2(f.sim_time as f64 / q.sim_time.max(1) as f64),
                format!("{}", s.queued_ns / 1000),
                format!("{}", s.bus.queued_ns / 1000),
                format!("{}", s.hub.queued_ns / 1000),
            ]);
        }
    }
    out.push_str(&format!(
        "\nApplications at P={p}, link-only queueing vs the full resource fabric\n\
         (fabric adds per-node shared-bus and per-router hub arbitration):\n{}",
        render(
            &cells(&[
                "workload",
                "queued ms",
                "fabric ms",
                "fabric x",
                "link q µs",
                "bus q µs",
                "hub q µs",
            ]),
            &rows
        )
    ));
    out
}

fn n2_fault(quick: bool) -> String {
    use machine::{ContentionMode, FaultMode};
    use parallel::SchedPolicy;

    // Fault-injection sweep: the same workloads on the queueing
    // interconnect, healthy vs one degraded link vs one killed router
    // port. Degrade multiplies a link's service time; kill removes a
    // router edge and every transfer that would cross it detours over the
    // surviving hypercube edges. P must give the routers at least two
    // dimensions or the cut has no detour (quick keeps P=16, not 8).
    let p = if quick { 16 } else { 32 };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    let degraded_spec = "plan:down0:deg8";
    let faulted_spec = "plan:down0:deg8;r0d0:kill";
    let faulty = |p: usize, spec: &str| -> Arc<Machine> {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: ContentionMode::Queued,
                fault: FaultMode::parse(spec).expect("valid fault spec"),
                ..MachineConfig::origin2000()
            },
        ))
    };

    let mut out = format!(
        "N2: graceful degradation under interconnect faults at P={p}\n\
         (queueing model on; slow = {degraded_spec}: node 0's inbound\n\
         bristle port serves 8x slower; faulted = {faulted_spec}:\n\
         the slow link plus a cut on router 0's dim-0 port, around which\n\
         traffic detours over the surviving hypercube edges)\n\n"
    );
    let mut rows = Vec::new();
    let mut amr_retained = [0.0f64; 3];
    let mut degraded_report = String::new();
    let mut amr_mp_times = (0u64, 0u64);
    let mut amr_mp_checksum = 0.0f64;
    // Pin the deterministic schedule: a fault comparison under free OS
    // interleaving confounds the fault's cost with schedule noise.
    let det = Some(SchedPolicy::Det);
    for app in [App::Amr, App::NBody] {
        for (mi, &model) in Model::ALL.iter().enumerate() {
            let healthy = apps::run_app_sched(machine_queued(p), app, model, &nb, &am, det);
            let deg = apps::run_app_sched(faulty(p, degraded_spec), app, model, &nb, &am, det);
            let dead = apps::run_app_sched(faulty(p, faulted_spec), app, model, &nb, &am, det);
            // Graceful degradation: faults move time and traffic, never
            // the physics.
            assert_eq!(deg.checksum, healthy.checksum, "degrade changed physics");
            assert_eq!(dead.checksum, healthy.checksum, "dead link changed physics");
            let ds = dead.net.as_ref().expect("queued run reports NetStats");
            assert_eq!(ds.dead_links, 1, "the kill must register");
            assert_eq!(ds.degraded_links, 1, "the degrade must register");
            assert!(
                ds.detoured_transfers > 0,
                "{} / {}: traffic must detour around the cut",
                app.name(),
                model.name()
            );
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(healthy.sim_time),
                ms(deg.sim_time),
                x2(deg.sim_time as f64 / healthy.sim_time.max(1) as f64),
                ms(dead.sim_time),
                x2(dead.sim_time as f64 / healthy.sim_time.max(1) as f64),
                ds.detoured_transfers.to_string(),
            ]);
            if app == App::Amr {
                amr_retained[mi] = healthy.sim_time as f64 / dead.sim_time.max(1) as f64;
                if model == Model::Mp {
                    degraded_report = deg.net_report.clone().expect("queued run renders hotspots");
                    amr_mp_times = (healthy.sim_time, deg.sim_time);
                    amr_mp_checksum = healthy.checksum;
                }
            }
        }
    }
    out.push_str(&render(
        &cells(&[
            "workload",
            "healthy ms",
            "slow ms",
            "slow x",
            "slow+dead ms",
            "slow+dead x",
            "detours",
        ]),
        &rows,
    ));

    // The acceptance property: bulk message passing retains more of its
    // healthy throughput across the faulted fabric (one slow link, one
    // dead link) than the cache-coherent SAS, whose fine-grained line
    // fills pay the slow port and the detour on every miss.
    let (mp_ret, sh_ret, sas_ret) = (amr_retained[0], amr_retained[1], amr_retained[2]);
    assert!(
        mp_ret > sas_ret,
        "MP should retain more throughput than CC-SAS under the slow+dead links \
         ({mp_ret:.3} vs {sas_ret:.3})"
    );
    out.push_str(&format!(
        "\nAMR throughput retained under the slow+dead links (healthy/faulted time):\n  \
         MPI {mp_ret:.2}, SHMEM {sh_ret:.2}, CC-SAS {sas_ret:.2} — bulk messages amortise the\n  \
         slow port and the detour that the fine-grained models pay per transfer.\n"
    ));

    // Link hotspots of the degraded AMR / MPI run: the slow link is
    // annotated in place, per phase.
    out.push_str(&format!(
        "\nAMR / MPI link hotspots with the degraded bristle:\n{degraded_report}"
    ));

    // Heal: the degraded bristle is restored partway through the run
    // (`plan:down0:deg8;down0:heal@<ns>`). Throughput must recover — the
    // healed run lands strictly between the healthy and the permanently
    // degraded run — and the physics never moves.
    let (healthy_t, deg_t) = amr_mp_times;
    let heal_at = deg_t / 4;
    let healed_spec = format!("plan:down0:deg8;down0:heal@{heal_at}");
    let healed = apps::run_app_sched(faulty(p, &healed_spec), App::Amr, Model::Mp, &nb, &am, det);
    assert_eq!(healed.checksum, amr_mp_checksum, "heal changed physics");
    let hs = healed.net.as_ref().expect("queued run reports NetStats");
    assert_eq!(
        hs.degraded_links, 0,
        "a terminally healed link must not count as degraded"
    );
    assert!(
        healed.sim_time < deg_t,
        "healing the bristle mid-run must recover throughput \
         (healed {} vs degraded {deg_t})",
        healed.sim_time
    );
    assert!(
        healed.sim_time >= healthy_t,
        "a run degraded until t={heal_at} cannot beat the healthy run"
    );
    out.push_str(&format!(
        "\nHeal ({healed_spec}): AMR / MPI with the slow bristle restored mid-run:\n  \
         healthy {}, degraded {}, healed {} — throughput recovers once the\n  \
         port returns to full service; the hotspot report marks the link [healed].\n",
        ms(healthy_t),
        ms(deg_t),
        ms(healed.sim_time),
    ));
    out
}

fn n3_bus_saturation(quick: bool) -> String {
    use machine::ContentionMode;
    use parallel::SchedPolicy;

    // Bus-saturation sweep: fix the PE count and fatten the nodes. More
    // CPUs per node means more PEs arbitrating for each node's shared
    // SysAD bus and each router's hub port — the cluster-of-SMPs failure
    // mode the follow-up papers measured. Efficiency compares the analytic
    // (off) and fabric runs *at the same topology*, so the column isolates
    // pure resource contention from path-length effects.
    let p = if quick { 8 } else { 16 };
    let cpns: &[usize] = if quick { &[2, 4, 8] } else { &[2, 4, 8, 16] };
    let (nb, am) = (nbody_cfg(quick), amr_cfg(quick));
    // Pin the deterministic schedule so the sweep is bitwise reproducible.
    let det = Some(SchedPolicy::Det);
    let mach = |cpn: usize, mode: ContentionMode| -> Arc<Machine> {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                cpus_per_node: cpn,
                contention: mode,
                ..MachineConfig::origin2000()
            },
        ))
    };

    let mut out = format!(
        "N3: shared-bus saturation at fixed P={p}, fattening nodes from {} to {}\n\
         CPUs each (ContentionMode::Fabric: every transfer arbitrates for its\n\
         source and destination node buses and the router hub ports on its\n\
         path; per-PE efficiency = analytic time / fabric time at the same\n\
         topology, so 1.00 means contention-free)\n",
        cpns[0],
        cpns[cpns.len() - 1],
    );
    let mut sas_report = String::new();
    for app in [App::Amr, App::NBody] {
        let mut rows = Vec::new();
        let mut eff = vec![[0.0f64; 3]; cpns.len()];
        for (ci, &cpn) in cpns.iter().enumerate() {
            let mut row = vec![cpn.to_string()];
            let mut by_kind = String::new();
            for (mi, &model) in Model::ALL.iter().enumerate() {
                let off =
                    apps::run_app_sched(mach(cpn, ContentionMode::Off), app, model, &nb, &am, det);
                let fab = apps::run_app_sched(
                    mach(cpn, ContentionMode::Fabric),
                    app,
                    model,
                    &nb,
                    &am,
                    det,
                );
                assert_eq!(fab.checksum, off.checksum, "fabric changed physics");
                let s = fab.net.as_ref().expect("fabric run reports NetStats");
                assert!(s.bus.transfers > 0, "fabric runs must cross node buses");
                eff[ci][mi] = off.sim_time as f64 / fab.sim_time.max(1) as f64;
                row.push(format!("{:.3}", eff[ci][mi]));
                if model == Model::Sas {
                    by_kind = fab
                        .net_kind_summary()
                        .expect("fabric run reports kind breakdown");
                    if app == App::Amr && ci == cpns.len() - 1 {
                        sas_report = fab.net_report.clone().expect("fabric run renders hotspots");
                    }
                }
            }
            row.push(by_kind);
            rows.push(row);
        }
        // The acceptance properties, on the adaptive headline workload:
        // fattening nodes costs CC-SAS per-PE efficiency monotonically
        // (every fill arbitrates for the shared bus), while bulk message
        // passing degrades strictly less (its per-message software
        // overhead is bus-free). The irregular N-body is displayed for
        // contrast but not asserted — its widest-node case is single-node
        // and all-local, which relieves the links as fast as the bus fills.
        if app == App::Amr {
            let sas: Vec<f64> = eff.iter().map(|e| e[2]).collect();
            let mp: Vec<f64> = eff.iter().map(|e| e[0]).collect();
            assert!(
                sas.windows(2).all(|w| w[1] < w[0]),
                "CC-SAS efficiency must fall monotonically with node width ({sas:?})"
            );
            assert!(
                1.0 - mp[mp.len() - 1] < 1.0 - sas[sas.len() - 1],
                "MP must degrade strictly less than CC-SAS at the widest node \
                 (MP {:.3} vs CC-SAS {:.3})",
                mp[mp.len() - 1],
                sas[sas.len() - 1]
            );
        }
        out.push('\n');
        out.push_str(&format!(
            "{} per-PE efficiency vs node width:\n",
            app.name()
        ));
        out.push_str(&render(
            &cells(&[
                "cpus/node",
                "MPI eff",
                "SHMEM eff",
                "CC-SAS eff",
                "CC-SAS queue by kind",
            ]),
            &rows,
        ));
    }

    // Hotspot anatomy of the saturated case: the report groups contended
    // resources by kind, and the top entries must include the shared buses
    // or hub ports — the links are no longer where the time goes.
    assert!(
        sas_report.lines().any(|l| {
            let t = l.trim_start();
            t.starts_with("bus ") || t.starts_with("hub ")
        }),
        "top-k hotspots must attribute delay to a bus or hub resource:\n{sas_report}"
    );
    out.push_str(&format!(
        "\nCC-SAS AMR resource hotspots at {} CPUs/node (kind column groups\n\
         links, node buses and hub ports):\n{sas_report}",
        cpns[cpns.len() - 1],
    ));
    out
}

fn q1_serving(quick: bool) -> String {
    use apps::RunMetrics;
    use machine::{ContentionMode, FaultMode};
    use o2k_serve::{Mitigation, ServeConfig};
    use parallel::SchedPolicy;

    // Tail latency of the sharded key-value service under the three
    // models, across four fabric conditions. Clients are open-loop
    // virtual-time event sources, so a million requests are a million
    // table lookups; every run pins the deterministic schedule so the
    // quantiles replay bitwise.
    let p = if quick { 16 } else { 32 };
    let base = ServeConfig {
        keys: if quick { 8_192 } else { 32_768 },
        requests: if quick { 40_000 } else { 90_000 },
        mean_gap_ns: 25_000,
        skew: 1.0,
        val_words: 32,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation: Mitigation::Off,
        start_ns: 0,
    };
    let sick_spec = "plan:down0:deg8;r0d0:kill";
    let det = Some(SchedPolicy::Det);
    let scenarios: [(&str, &str); 4] = [
        ("healthy", "queued fabric, uniform keys"),
        ("skewed", "queued fabric, key skew 3.0 piles onto shard 0"),
        ("sick", "queued fabric with plan:down0:deg8;r0d0:kill"),
        ("fat-nodes", "full fabric (buses+hubs), 8 CPUs per node"),
    ];
    let mach = |scen: &str| -> Arc<Machine> {
        let cfg = match scen {
            "sick" => MachineConfig {
                contention: ContentionMode::Queued,
                fault: FaultMode::parse(sick_spec).expect("valid fault spec"),
                ..MachineConfig::origin2000()
            },
            "fat-nodes" => MachineConfig {
                contention: ContentionMode::Fabric,
                cpus_per_node: 8,
                ..MachineConfig::origin2000()
            },
            _ => MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        };
        Arc::new(Machine::new(p, cfg))
    };
    let serve_cfg = |scen: &str| -> ServeConfig {
        ServeConfig {
            skew: if scen == "skewed" { 3.0 } else { 1.0 },
            ..base.clone()
        }
    };

    let mut out = format!(
        "Q1: KV-serving tail latency at P={p}, {} requests per cell\n\
         (open-loop clients, mean inter-arrival {} ns/PE, {}-key table,\n\
         256 B values; latency = virtual time from arrival to completion,\n\
         deterministic schedule everywhere)\n\n",
        base.requests, base.mean_gap_ns, base.keys,
    );
    let mut rows = Vec::new();
    let mut total_requests = 0u64;
    // p99 per (scenario, model) for the degradation assertions.
    let mut p99 = vec![[0u64; 3]; scenarios.len()];
    let mut queued = vec![[0u64; 3]; scenarios.len()];
    let mut skew_report = String::new();
    let mut sick_report = String::new();
    for (si, (scen, _)) in scenarios.iter().enumerate() {
        let cfg = serve_cfg(scen);
        let mut checksums = [0.0f64; 3];
        for (mi, &model) in Model::ALL.iter().enumerate() {
            let r: RunMetrics = o2k_serve::run_sched(mach(scen), model, &cfg, det);
            let s = r.serve.as_ref().expect("serving run carries ServeStats");
            assert_eq!(s.issued, cfg.requests, "every request admitted");
            assert_eq!(s.completed, cfg.requests, "no shedding without deadline");
            assert_eq!(
                r.counters.requests_served, s.completed,
                "every completed request was served exactly once"
            );
            total_requests += s.completed;
            checksums[mi] = r.checksum;
            p99[si][mi] = s.p99_ns;
            let net = r.net.as_ref().expect("contended run reports NetStats");
            queued[si][mi] = net.queued_ns;
            if *scen == "skewed" && model == Model::Shmem {
                skew_report = r
                    .net_report
                    .clone()
                    .expect("contended run renders hotspots");
            }
            if *scen == "sick" && model == Model::Sas {
                let net = r.net.as_ref().expect("sick run reports NetStats");
                assert_eq!(net.dead_links, 1, "the kill must register");
                assert_eq!(net.degraded_links, 1, "the degrade must register");
                assert!(net.detoured_transfers > 0, "traffic must detour the cut");
                sick_report = r.net_report.clone().expect("sick run renders hotspots");
            }
            rows.push(vec![
                format!("{} / {}", scen, model.name()),
                s.p50_ns.to_string(),
                s.p99_ns.to_string(),
                s.p999_ns.to_string(),
                s.max_ns.to_string(),
                format!("{:.0}", s.throughput_rps),
            ]);
        }
        assert_eq!(checksums[0], checksums[1], "{scen}: MP vs SHMEM data");
        assert_eq!(checksums[1], checksums[2], "{scen}: SHMEM vs CC-SAS data");
    }
    out.push_str(&render(
        &cells(&[
            "scenario / model",
            "p50 ns",
            "p99 ns",
            "p999 ns",
            "max ns",
            "req/s",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nTotal simulated client requests: {total_requests}\n"
    ));
    if !quick {
        assert!(
            total_requests >= 1_000_000,
            "the full suite must serve at least a million requests"
        );
    }

    // Skew must light up the fabric: piling a third of all traffic onto
    // shard 0's node queues its links far beyond the uniform run (the
    // hotspot table below names the ports).
    assert!(
        queued[1][1] > queued[0][1],
        "skewed SHMEM must queue more than uniform ({} vs {} ns)",
        queued[1][1],
        queued[0][1]
    );

    // The acceptance property: under the sick fabric (slow bristle into
    // node 0 plus a dead router port) MP's p99 degrades *less* than
    // CC-SAS's. An MP lookup pushes one 8-byte request through the sick
    // port and its 256-byte reply leaves node 0 on healthy links, while a
    // CC-SAS lookup drags every missing cache line through it at 8x
    // occupancy — so the coherence traffic, not the message traffic,
    // inherits the queue.
    let mp_deg = p99[2][0] as f64 / p99[0][0].max(1) as f64;
    let sh_deg = p99[2][1] as f64 / p99[0][1].max(1) as f64;
    let sas_deg = p99[2][2] as f64 / p99[0][2].max(1) as f64;
    assert!(
        mp_deg < sas_deg,
        "MP p99 must degrade less than CC-SAS under the sick fabric \
         (MP {mp_deg:.2}x vs CC-SAS {sas_deg:.2}x)"
    );
    out.push_str(&format!(
        "\np99 degradation under the sick fabric (sick p99 / healthy p99):\n  \
         MPI {mp_deg:.2}x, SHMEM {sh_deg:.2}x, CC-SAS {sas_deg:.2}x — one small request\n  \
         message amortises the slow port; per-line coherence fills pay it on\n  \
         every miss.\n"
    ));

    out.push_str(&format!(
        "\nSHMEM link hotspots with key skew 3.0 (shard 0's node saturates):\n{skew_report}"
    ));
    out.push_str(&format!(
        "\nCC-SAS link hotspots on the sick fabric (the degraded bristle and\n\
         the detoured traffic are annotated in place):\n{sick_report}"
    ));
    out
}

fn q2_mitigation(quick: bool) -> String {
    use apps::{RunMetrics, RunOpts};
    use o2k_serve::{Mitigation, ServeConfig};

    // Q2: hot-shard mitigation at scale. The Q1 skew scenario rerun on
    // the event core at P up to 1024, crossing skew x mitigation x model.
    // Replicated reads fan a hot shard's lookups over R deterministic
    // helper copies (SHMEM ships symmetric-heap copies at an epoch gate;
    // CC-SAS re-homes the hot shard's pages so coherence does the
    // fan-out; MP replica PEs join the REQ/REP mailbox protocol), and MP
    // work-stealing lets idle PEs claim request batches straight out of
    // the hot owner's mailbox. Everything runs the deterministic
    // schedule, so each cell replays bitwise — and with uniform keys the
    // mitigation plan is empty, which must leave runs *bitwise identical*
    // to mitigation off.
    let ps: Vec<usize> = if quick { vec![64] } else { vec![64, 256, 1024] };
    let mk_cfg = |p: usize, skew: f64, mitigation: Mitigation| ServeConfig {
        keys: 64 * p,
        requests: 32 * p as u64,
        mean_gap_ns: 15_000,
        skew,
        val_words: 64,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation,
        // Clients start only after the table build and any replica-copy
        // epoch, so the measured window is pure steady-state serving.
        start_ns: 600_000,
    };
    const REPL: Mitigation = Mitigation::Replicate { replicas: 3 };
    let grid: [(Model, Mitigation, &str); 7] = [
        (Model::Mp, Mitigation::Off, "MPI / off"),
        (Model::Mp, REPL, "MPI / replicate"),
        (Model::Mp, Mitigation::Steal, "MPI / steal"),
        (Model::Shmem, Mitigation::Off, "SHMEM / off"),
        (Model::Shmem, REPL, "SHMEM / replicate"),
        (Model::Sas, Mitigation::Off, "CC-SAS / off"),
        (Model::Sas, REPL, "CC-SAS / replicate"),
    ];

    let mut out = format!(
        "Q2: hot-shard mitigation under key skew, event core, P up to {top}\n\
         (64 keys and 32 requests per PE, mean inter-arrival 15000 ns/PE,\n\
         64 B values, service 1500 ns; skew 3.0 piles ~25-35% of all traffic\n\
         onto the first shards; replicate = 3 helper copies, deterministic\n\
         demand-hash fan-out; steal = idle PEs claim request batches from\n\
         hot owners' mailboxes at virtual time)\n\n",
        top = ps.last().unwrap(),
    );
    let mut rows = Vec::new();
    let mut factors = String::new();
    for &p in &ps {
        for &skew in &[1.0f64, 3.0] {
            let mut baseline: Option<RunMetrics> = None;
            // Off-cell metrics per model for the bitwise and p99 checks.
            let mut off: Vec<(Model, RunMetrics)> = Vec::new();
            for &(model, mit, label) in &grid {
                let cfg = mk_cfg(p, skew, mit);
                let r = o2k_serve::run_opts(machine_queued(p), model, &cfg, RunOpts::det_event());
                let s = r.serve.as_ref().expect("serving run carries ServeStats");
                assert_eq!(s.issued, cfg.requests, "{label}: every request admitted");
                assert_eq!(
                    s.issued,
                    s.completed + s.failed,
                    "{label}: request conservation"
                );
                assert_eq!(s.failed, 0, "{label}: no shedding without a deadline");
                assert_eq!(
                    r.counters.requests_served, s.completed,
                    "{label}: every request served exactly once"
                );
                if let Some(b) = &baseline {
                    let bs = b.serve.as_ref().unwrap();
                    assert_eq!(
                        r.checksum.to_bits(),
                        b.checksum.to_bits(),
                        "P={p} skew={skew} {label}: same data served"
                    );
                    assert_eq!(
                        s.shard_counts, bs.shard_counts,
                        "P={p} skew={skew} {label}: demand is keyed by true owner"
                    );
                } else {
                    baseline = Some(r.clone());
                }
                match mit {
                    Mitigation::Off => {}
                    Mitigation::Replicate { .. } if skew > 1.0 => assert!(
                        r.counters.replica_bytes > 0,
                        "{label}: skewed replicate cell must ship copies"
                    ),
                    Mitigation::Steal if skew > 1.0 => assert!(
                        r.counters.requests_stolen > 0,
                        "{label}: skewed steal cell must steal"
                    ),
                    _ => {
                        // Uniform keys: nothing is hot, the plan is empty,
                        // and the run must be bitwise the off run.
                        let (_, b) = off
                            .iter()
                            .find(|(m, _)| *m == model)
                            .expect("off cell runs first per model");
                        assert_eq!(
                            r.sim_time, b.sim_time,
                            "{label}: empty plan must not move the clock"
                        );
                        assert_eq!(r.checksum.to_bits(), b.checksum.to_bits());
                        assert_eq!(
                            r.sched.as_ref().map(|s| s.fingerprint),
                            b.sched.as_ref().map(|s| s.fingerprint),
                            "{label}: empty plan must replay the off schedule"
                        );
                        assert_eq!(r.counters.replica_bytes, 0, "{label}");
                        assert_eq!(r.counters.requests_stolen, 0, "{label}");
                    }
                }
                if matches!(mit, Mitigation::Off) {
                    off.push((model, r.clone()));
                }
                rows.push(vec![
                    format!("{p} / {skew} / {label}"),
                    s.p50_ns.to_string(),
                    s.p99_ns.to_string(),
                    s.max_ns.to_string(),
                    r.counters.requests_stolen.to_string(),
                    (r.counters.replica_bytes / 1024).to_string(),
                ]);
                if skew > 1.0 && !matches!(mit, Mitigation::Off) {
                    let off_p99 = off
                        .iter()
                        .find(|(m, _)| *m == model)
                        .map(|(_, b)| b.serve.as_ref().unwrap().p99_ns)
                        .unwrap();
                    let cut = off_p99 as f64 / s.p99_ns.max(1) as f64;
                    factors.push_str(&format!(
                        "  P={p}: {label} cuts skewed p99 {cut:.2}x \
                         ({off_p99} -> {} ns)\n",
                        s.p99_ns
                    ));
                    // The acceptance property: at the top of the sweep,
                    // every MP and SHMEM mitigation must beat off.
                    if p == *ps.last().unwrap() && model != Model::Sas {
                        assert!(
                            s.p99_ns < off_p99,
                            "P={p} {label}: mitigation must cut skewed p99 \
                             ({} vs off {off_p99} ns)",
                            s.p99_ns
                        );
                    }
                }
            }
        }
    }
    out.push_str(&render(
        &cells(&[
            "P / skew / model / mitigation",
            "p50 ns",
            "p99 ns",
            "max ns",
            "stolen",
            "repl KiB",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nSkewed-tail p99 cut by mitigation (off p99 / mitigated p99):\n{factors}\
         \nUniform-key cells with mitigation on are bitwise identical to off\n\
         (empty plan: no extra messages, charges, or schedule points), and\n\
         every cell serves bit-identical data — the checksum and per-shard\n\
         demand vector match across all models and mitigation modes.\n"
    ));
    out
}

fn e1_scale(quick: bool) -> String {
    use apps::{RunMetrics, RunOpts};
    use o2k_serve::ServeConfig;

    // E1: event-core scaling. The event core runs every PE as a coroutine
    // on one thread and carries deterministic schedules to P = 1024. This
    // table is simulated time only, so it replays bitwise — the
    // wall-clock trajectory lives in BENCH_exec.json, which is allowed to
    // vary by host.
    let pes: Vec<usize> = if quick {
        vec![16, 64, 256]
    } else {
        vec![64, 256, 1024]
    };
    let nb = NBodyConfig {
        n: if quick { 512 } else { 4_096 },
        steps: 2,
        ..NBodyConfig::default()
    };
    let am = AmrConfig {
        nx: if quick { 32 } else { 64 },
        ny: if quick { 32 } else { 64 },
        steps: if quick { 1 } else { 2 },
        sweeps: if quick { 1 } else { 2 },
        ..AmrConfig::default()
    };
    // SHMEM serving scales one-sidedly (no per-pair DONE protocol), so it
    // is the model that meaningfully reaches 1024 shards.
    let sv = ServeConfig {
        keys: if quick { 16_384 } else { 65_536 },
        requests: if quick { 2_048 } else { 8_192 },
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    };
    let det = RunOpts::det_event();

    let workloads: [(&str, &str); 3] = [
        ("nbody", "N-body / MPI"),
        ("amr", "AMR / MPI"),
        ("serve", "KV-serve / SHMEM"),
    ];
    let run = |p: usize, wl: &str, opts: RunOpts| -> RunMetrics {
        match wl {
            "nbody" => apps::run_app_opts(machine(p), App::NBody, Model::Mp, &nb, &am, opts),
            "amr" => apps::run_app_opts(machine(p), App::Amr, Model::Mp, &nb, &am, opts),
            "serve" => o2k_serve::run_opts(machine(p), Model::Shmem, &sv, opts),
            other => unreachable!("unknown workload {other}"),
        }
    };

    let mut out = format!(
        "E1: event-core scaling to P={top} (deterministic schedule, simulated\n\
         time; every PE is a coroutine on one OS thread)\n\n",
        top = pes.last().unwrap(),
    );

    let mut rows = Vec::new();
    for (wl, label) in &workloads {
        for &p in &pes {
            let r = run(p, wl, det.clone());
            assert!(r.sim_time > 0, "{wl} at P={p} must do work");
            let s = r.sched.expect("det runs carry SchedStats");
            rows.push(vec![
                label.to_string(),
                p.to_string(),
                ms(r.sim_time),
                format!("{:.6e}", r.checksum),
                format!("{:016x}", s.fingerprint),
                s.switches.to_string(),
            ]);
        }
    }
    out.push_str(&render(
        &cells(&[
            "workload",
            "P",
            "sim ms",
            "checksum",
            "schedule fingerprint",
            "switches",
        ]),
        &rows,
    ));
    out
}

fn c1_warm_start(quick: bool) -> String {
    use std::time::Instant;

    use apps::{RunMetrics, RunOpts};
    use machine::{ContentionMode, FaultMode};
    use o2k_serve::{Mitigation, ServeConfig};
    use o2k_snap::{SnapPoint, SnapSpec};
    use parallel::SchedPolicy;

    // C1: warm-starting a scenario sweep from a snapshot. Two prologues
    // are paid once and captured — the AMR mesh converged to its last
    // adaptation step, and the Q1 KV table fully built — then a fault ×
    // contention × policy sweep fans out from the snapshot, each cell
    // running only the tail it actually studies. The from-scratch sweep
    // re-pays the prologue in every cell; the difference is host
    // wall-clock, since a restored run replays the same virtual-time tail.
    //
    // C1 manages its own snapshot directory, so the process-wide
    // `--snapshot` / `--restore` spec is parked for the duration (a
    // global restore would warm-start the from-scratch half too).
    let parked_spec = o2k_snap::current_spec();
    o2k_snap::set_spec(None);

    let p = 16;
    // Heavy on sweeps: the smoothing sweeps (and their halo exchanges) are
    // exactly the per-step cost a warm start skips, while the adaptation
    // replay it cannot skip stays cheap.
    let am = if quick {
        AmrConfig {
            nx: 12,
            ny: 12,
            steps: 8,
            sweeps: 16,
            ..AmrConfig::default()
        }
    } else {
        AmrConfig {
            nx: 20,
            ny: 20,
            steps: 8,
            sweeps: 16,
            ..AmrConfig::default()
        }
    };
    let nb = nbody_cfg(quick); // unused by the AMR runs; run_app_opts wants both
                               // The serving half keeps its Q1 shape but a short tail: a warm start
                               // only saves the build phase, so the cells mostly measure that the
                               // restore itself is cheap (one symmetric-heap import).
    let sv = ServeConfig {
        keys: if quick { 16_384 } else { 32_768 },
        requests: if quick { 1_500 } else { 6_000 },
        mean_gap_ns: 25_000,
        skew: 1.0,
        val_words: 32,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation: Mitigation::Off,
        start_ns: 0,
    };
    // AMR captures right before its last step: the mesh has converged
    // through steps-1 adaptations and only the final solve tail remains.
    let amr_gate = SnapPoint {
        name: "step".into(),
        index: (am.steps - 1) as u64,
    };
    let serve_gate = SnapPoint {
        name: "warm".into(),
        index: 0,
    };

    let faults: [(&str, &str); 3] = [
        ("healthy", "off"),
        ("slow", "plan:down0:deg8"),
        ("slow+dead", "plan:down0:deg8;r0d0:kill"),
    ];
    let policies: [(&str, SchedPolicy); 2] = [
        ("det", SchedPolicy::Det),
        ("explore:11", SchedPolicy::Explore { seed: 11 }),
    ];
    let conts: [(&str, ContentionMode); 2] = [
        ("queued", ContentionMode::Queued),
        ("fabric", ContentionMode::Fabric),
    ];
    // The sweep: AMR crosses all three axes (12 cells); serving crosses
    // fault × policy on the queued fabric (6 cells). 18 cells total.
    #[derive(Clone, Copy)]
    struct Cell {
        wl: &'static str,
        fault: (&'static str, &'static str),
        cont: (&'static str, ContentionMode),
        policy: (&'static str, SchedPolicy),
    }
    let mut sweep = Vec::new();
    for fault in faults {
        for cont in conts {
            for policy in policies {
                sweep.push(Cell {
                    wl: "amr",
                    fault,
                    cont,
                    policy,
                });
            }
        }
        for policy in policies {
            sweep.push(Cell {
                wl: "serve",
                fault,
                cont: conts[0],
                policy,
            });
        }
    }

    let mach = |cont: ContentionMode, fault: &str| -> Arc<Machine> {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: cont,
                fault: FaultMode::parse(fault).expect("valid fault spec"),
                ..MachineConfig::origin2000()
            },
        ))
    };
    let run = |c: &Cell, snap: Option<SnapSpec>| -> RunMetrics {
        let m = mach(c.cont.1, c.fault.1);
        let opts = RunOpts {
            sched: Some(c.policy.1),
            snap,
        };
        match c.wl {
            "amr" => apps::run_app_opts(m, App::Amr, Model::Shmem, &nb, &am, opts),
            // SHMEM serving restores as one symmetric-heap import; CC-SAS
            // would drag its whole coherence directory through every cell's
            // restore, which costs more than the build it skips.
            "serve" => o2k_serve::run_opts(m, Model::Shmem, &sv, opts),
            other => unreachable!("unknown workload {other}"),
        }
    };

    // --- from-scratch sweep: every cell pays the full prologue ---
    let mut scratch = Vec::new();
    let mut scratch_host = Vec::new();
    let scratch_start = Instant::now();
    for c in &sweep {
        let t = Instant::now();
        scratch.push(run(c, None));
        scratch_host.push(t.elapsed());
    }
    let scratch_total = scratch_start.elapsed();

    // --- warm-start sweep: capture each prologue once, then fan out ---
    let snap_dir = std::env::temp_dir().join(format!("o2k-c1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let warm_start = Instant::now();
    let baseline = |wl: &'static str| Cell {
        wl,
        fault: faults[0],
        cont: conts[0],
        policy: policies[0],
    };
    let cap_amr = run(
        &baseline("amr"),
        Some(SnapSpec::Capture {
            dir: snap_dir.clone(),
            point: amr_gate.clone(),
        }),
    );
    let cap_serve = run(
        &baseline("serve"),
        Some(SnapSpec::Capture {
            dir: snap_dir.clone(),
            point: serve_gate,
        }),
    );
    let captured = std::fs::read_dir(&snap_dir)
        .expect("snapshot dir readable")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == o2k_snap::EXT))
        })
        .count();
    assert_eq!(captured, 2, "both prologues must have been captured");
    let mut warm = Vec::new();
    let mut warm_host = Vec::new();
    for c in &sweep {
        let t = Instant::now();
        warm.push(run(
            c,
            Some(SnapSpec::Restore {
                dir: snap_dir.clone(),
            }),
        ));
        warm_host.push(t.elapsed());
    }
    let warm_total = warm_start.elapsed();
    let _ = std::fs::remove_dir_all(&snap_dir);
    o2k_snap::set_spec(parked_spec);

    // Correctness before speed. Faults, contention modes and cooperative
    // schedules move virtual time, never the physics — so every cell's
    // checksum must be bitwise identical between the warm-started run and
    // its from-scratch twin.
    for (i, c) in sweep.iter().enumerate() {
        assert_eq!(
            warm[i].checksum.to_bits(),
            scratch[i].checksum.to_bits(),
            "{}/{}/{}/{}: warm-start changed the physics",
            c.wl,
            c.fault.0,
            c.cont.0,
            c.policy.0
        );
    }
    // On the cells matching the capture conditions the restored run must
    // replay the straight run's tail *exactly*: capture run, warm run and
    // from-scratch run agree on time, counters and pick sequence.
    for (wl, cap) in [("amr", &cap_amr), ("serve", &cap_serve)] {
        let i = sweep
            .iter()
            .position(|c| {
                c.wl == wl && c.fault.0 == "healthy" && c.cont.0 == "queued" && c.policy.0 == "det"
            })
            .expect("baseline cell present");
        for (kind, r) in [("capture", cap), ("warm", &warm[i])] {
            assert_eq!(
                r.checksum.to_bits(),
                scratch[i].checksum.to_bits(),
                "{wl} {kind}: checksum"
            );
            assert_eq!(r.sim_time, scratch[i].sim_time, "{wl} {kind}: sim time");
            assert_eq!(r.counters, scratch[i].counters, "{wl} {kind}: counters");
            assert_eq!(
                r.sched.as_ref().map(|s| s.fingerprint),
                scratch[i].sched.as_ref().map(|s| s.fingerprint),
                "{wl} {kind}: schedule fingerprint"
            );
        }
    }

    let ratio = scratch_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-9);
    assert!(
        ratio > 1.5,
        "warm-starting the sweep must beat from-scratch clearly \
         (got {ratio:.2}x; from-scratch {scratch_total:.2?}, warm {warm_total:.2?})"
    );

    let mut out = format!(
        "C1: warm-starting a {n}-cell sweep from snapshots at P={p}\n\
         (AMR/SHMEM captured at gate step:{amr_at} — the converged mesh before\n\
         its final solve step — and KV-serve/SHMEM at gate warm — the built\n\
         table before the first request; each warm cell restores that state\n\
         and runs only its tail under its own fault, contention and schedule.\n\
         Host wall-clock; virtual-time results are asserted identical to the\n\
         from-scratch twin cell by cell)\n\n",
        n = sweep.len(),
        amr_at = amr_gate.index,
    );
    let host_ms = |d: &std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    let mut rows = Vec::new();
    for (i, c) in sweep.iter().enumerate() {
        rows.push(vec![
            format!("{} / {} / {}", c.wl, c.fault.0, c.cont.0),
            c.policy.0.to_string(),
            host_ms(&scratch_host[i]),
            host_ms(&warm_host[i]),
            x2(scratch_host[i].as_secs_f64() / warm_host[i].as_secs_f64().max(1e-9)),
        ]);
    }
    out.push_str(&render(
        &cells(&[
            "cell (workload / fault / fabric)",
            "sched",
            "from-scratch ms",
            "from-snapshot ms",
            "speedup",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nSweep wall-clock: from-scratch {:.2?} vs from-snapshot {:.2?}\n\
         (the snapshot side *includes* both capture runs) — overall speedup\n\
         {:.2}x. Both baseline cells replay the capture run's tail bitwise\n\
         (checksum, counters, schedule fingerprint), and all {} cells keep\n\
         their physics unchanged under warm-start.\n",
        scratch_total,
        warm_total,
        ratio,
        rows.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        for id in ["t1", "t2", "t3"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 100, "{id} too short:\n{out}");
            assert!(out.contains('\n'));
        }
    }

    #[test]
    fn quick_figures_render() {
        for id in ["f2", "f6", "f7"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 100, "{id} too short");
        }
    }

    #[test]
    fn a_series_render() {
        for id in ["a1", "a2", "a3"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 80, "{id} too short");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("zzz", true);
    }

    #[test]
    fn n1_contention_renders_and_grows() {
        // The experiment itself asserts queueing delay grows with P and
        // that off-mode runs never build a NetSim.
        let out = run_experiment("n1", true);
        assert!(out.contains("queued ms"), "missing sweep table:\n{out}");
        assert!(out.contains("hotspot anatomy"), "missing report:\n{out}");
    }

    #[test]
    fn n3_bus_saturation_renders_and_saturates() {
        // The experiment itself asserts CC-SAS per-PE efficiency falls
        // monotonically with node width, that MP degrades strictly less,
        // and that the top hotspots name a bus or hub resource.
        let out = run_experiment("n3", true);
        assert!(out.contains("per-PE efficiency"), "missing sweep:\n{out}");
        assert!(
            out.contains("bus") && out.contains("hub"),
            "missing kind breakdown:\n{out}"
        );
    }

    #[test]
    fn q1_serving_renders_and_degrades_gracefully() {
        // The experiment itself asserts request conservation, cross-model
        // checksum equality per scenario, the skew hotspot, and that MP's
        // p99 degrades less than CC-SAS's under the sick fabric.
        let out = run_experiment("q1", true);
        assert!(out.contains("p99 ns"), "missing latency table:\n{out}");
        assert!(
            out.contains("Total simulated client requests"),
            "missing request count:\n{out}"
        );
        assert!(
            out.contains("p99 degradation under the sick fabric"),
            "missing degradation summary:\n{out}"
        );
        assert!(
            out.contains("[deg8]"),
            "hotspot report must mark the sick port:\n{out}"
        );
    }

    #[test]
    fn q2_mitigation_cuts_the_skewed_tail() {
        // The experiment itself asserts request conservation, cross-cell
        // checksum and shard-demand equality, that uniform-key cells with
        // mitigation on replay the off cell bitwise (empty plan), and
        // that every MP and SHMEM mitigation beats off on skewed p99 at
        // the top of the sweep.
        let out = run_experiment("q2", true);
        assert!(out.contains("p99 ns"), "missing latency table:\n{out}");
        assert!(
            out.contains("cuts skewed p99"),
            "missing mitigation factors:\n{out}"
        );
        assert!(
            out.contains("bitwise identical to off"),
            "missing inertness summary:\n{out}"
        );
    }

    #[test]
    fn e1_scales_on_the_event_core() {
        // The experiment itself asserts that every P does work.
        let out = run_experiment("e1", true);
        assert!(
            out.contains("schedule fingerprint"),
            "missing scaling table:\n{out}"
        );
        assert!(
            out.contains("256"),
            "must reach the top of the sweep:\n{out}"
        );
    }

    #[test]
    #[ignore = "runs the whole quick C1 sweep twice (minutes unoptimised); CI runs `repro c1 --quick` in release"]
    fn c1_warm_start_renders_and_wins() {
        // The experiment itself asserts both prologues were captured, that
        // every warm cell's physics matches its from-scratch twin, that the
        // baseline cells replay the capture run bitwise, and that the
        // snapshot sweep beats from-scratch on host wall-clock.
        let out = run_experiment("c1", true);
        assert!(out.contains("18-cell sweep"), "missing sweep size:\n{out}");
        assert!(
            out.contains("from-snapshot ms"),
            "missing wall-clock table:\n{out}"
        );
        assert!(
            out.contains("overall speedup"),
            "missing speedup summary:\n{out}"
        );
    }

    #[test]
    fn n2_fault_renders_and_recovers() {
        // The experiment itself asserts the physics never moves, that
        // traffic detours around the cut, and that MP retains more
        // throughput than CC-SAS under the faulted fabric.
        let out = run_experiment("n2", true);
        assert!(out.contains("slow+dead"), "missing fault table:\n{out}");
        assert!(
            out.contains("throughput retained"),
            "missing recovery summary:\n{out}"
        );
        assert!(
            out.contains("[deg8]"),
            "hotspot report must annotate the degraded link:\n{out}"
        );
    }
}
