//! Criterion benchmarks of the design-choice ablations DESIGN.md calls
//! out: paging policy, PLUM remapping, partitioning scheme, and the hybrid
//! layout. These time the *simulator* end to end under each variant; the
//! virtual-time consequences live in `repro a1..a5`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use apps::{AmrConfig, NBodyConfig, RunOpts};
use machine::{Machine, MachineConfig};
use sas::PagePolicy;

fn m(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

fn bench_paging(c: &mut Criterion) {
    let cfg = NBodyConfig::small();
    c.bench_function("ablation_nbody_first_touch", |b| {
        b.iter(|| apps::nbody_sas::run(m(4), &cfg, PagePolicy::FirstTouch, RunOpts::default()))
    });
    c.bench_function("ablation_nbody_round_robin", |b| {
        b.iter(|| apps::nbody_sas::run(m(4), &cfg, PagePolicy::RoundRobin, RunOpts::default()))
    });
}

fn bench_remap(c: &mut Criterion) {
    let with = AmrConfig::small();
    let without = AmrConfig {
        use_remap: false,
        ..AmrConfig::small()
    };
    c.bench_function("ablation_amr_with_remap", |b| {
        b.iter(|| apps::amr_mp::run(m(4), &with, RunOpts::default()))
    });
    c.bench_function("ablation_amr_without_remap", |b| {
        b.iter(|| apps::amr_mp::run(m(4), &without, RunOpts::default()))
    });
}

fn bench_hybrid_layouts(c: &mut Criterion) {
    let am = AmrConfig::small();
    let nb = NBodyConfig::small();
    c.bench_function("ablation_amr_hybrid", |b| {
        b.iter(|| apps::amr_hybrid::run(m(4), &am, RunOpts::default()))
    });
    c.bench_function("ablation_nbody_hybrid", |b| {
        b.iter(|| apps::nbody_hybrid::run(m(4), &nb, RunOpts::default()))
    });
}

fn bench_multilevel(c: &mut Criterion) {
    use mesh::adaptive::AdaptiveMesh;
    use mesh::dual::dual_graph;
    use partition::{multilevel_partition, CsrGraph};
    let mut mesh = AdaptiveMesh::structured(24, 24, 1.0, 1.0);
    let marked: Vec<u32> = mesh.active_tris().into_iter().step_by(4).collect();
    mesh.refine(&marked);
    let dual = dual_graph(&mesh);
    let lists: Vec<Vec<u32>> = (0..dual.len())
        .map(|v| dual.neighbors(v).to_vec())
        .collect();
    let g = CsrGraph::from_lists(&lists, vec![1.0; dual.len()]);
    c.bench_function("ablation_multilevel_partition", |b| {
        b.iter(|| multilevel_partition(&g, 16))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_paging, bench_remap, bench_hybrid_layouts, bench_multilevel
}
criterion_main!(benches);
