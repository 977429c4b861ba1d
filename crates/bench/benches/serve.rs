//! Criterion benchmarks of the serving workload's hot paths:
//!
//! * `hist_record_quantile` — the per-request histogram path in isolation
//!   (one record per iteration batch plus the three quantile reads);
//! * `clients_stream` — drawing one PE's open-loop schedule;
//! * `serve_{mp,shmem,sas}` — one full small serving run per model under
//!   the deterministic schedule on the queued fabric;
//! * `repro_q1_quick` — the whole Q1 experiment cell grid at quick scale
//!   (the wall-clock trajectory the BENCH_serve.json numbers pin);
//! * `repro_q2_quick` — the hot-shard mitigation grid at quick scale
//!   (P=64, skew x mitigation x model on the event core).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use apps::{Model, RunOpts};
use machine::{ContentionMode, Machine, MachineConfig};
use o2k_serve::clients;
use o2k_serve::hist::LatencyHist;
use o2k_serve::ServeConfig;

fn queued_machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: ContentionMode::Queued,
            ..MachineConfig::origin2000()
        },
    ))
}

fn bench_serve(c: &mut Criterion) {
    c.bench_function("hist_record_quantile", |b| {
        let mut h = LatencyHist::new();
        let mut v: u64 = 0x9E37_79B9;
        b.iter(|| {
            // One cheap xorshift keeps the values spread across octaves.
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            h.record(v >> 24);
            h.quantile(0.5) + h.quantile(0.99) + h.quantile(0.999)
        })
    });

    let cfg = ServeConfig::small();
    {
        let cfg = cfg.clone();
        c.bench_function("clients_stream", move |b| {
            b.iter(|| clients::stream(&cfg, 3, 8).len())
        });
    }

    for model in Model::ALL {
        let name = format!("serve_{}", model.name().to_lowercase().replace('-', ""));
        let cfg = cfg.clone();
        c.bench_function(&name, move |b| {
            b.iter(|| {
                o2k_serve::run_opts(queued_machine(8), model, &cfg, RunOpts::det_event()).sim_time
            })
        });
    }

    let quick = o2k_bench::ExpOpts::new(true);
    c.bench_function("repro_q1_quick", |b| {
        b.iter(|| o2k_bench::run_experiment("q1", &quick).len())
    });

    c.bench_function("repro_q2_quick", |b| {
        b.iter(|| o2k_bench::run_experiment("q2", &quick).len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(benches);
