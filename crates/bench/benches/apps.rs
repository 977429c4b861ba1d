//! Criterion benchmarks of the six full applications at a small
//! configuration (P = 4): end-to-end simulator throughput per model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use apps::{run_app_opts, AmrConfig, App, Model, NBodyConfig, RunOpts};
use machine::{Machine, MachineConfig};

fn bench_apps(c: &mut Criterion) {
    let machine = Arc::new(Machine::new(4, MachineConfig::origin2000()));
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let name = format!(
                "{}_{}",
                app.name().to_lowercase().replace('-', ""),
                model.name().to_lowercase().replace('-', "")
            );
            let m = Arc::clone(&machine);
            let (nb, am) = (nb.clone(), am.clone());
            c.bench_function(&name, move |b| {
                b.iter(|| run_app_opts(Arc::clone(&m), app, model, &nb, &am, RunOpts::default()))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_apps
}
criterion_main!(benches);
