//! Criterion benchmarks of the event execution core:
//!
//! * `coro_switch_100` — 100 yield/resume pairs through the raw stack
//!   switch (the event core's unit cost, vs ~µs for a condvar handoff);
//! * `{nbody,serve}_p{64,256}_event`, `serve_p1024_event`, and
//!   `nbody_p1024_event_unfiltered` — the scaling trajectory (the
//!   wall-clock curve BENCH_exec.json pins; every run replays the det
//!   schedule, so sim results are fixed). The N-body P=1024 cell is
//!   message-volume-bound, hence its own id.
//! * `event_heap_{indexed,lazy}_p1024` — the pending-PE set in isolation:
//!   one million pick/advance handoffs through the fixed-capacity indexed
//!   `PeHeap` versus the old lazy-invalidation `BinaryHeap` + stamp
//!   design it replaced, at the P=1024 team size the event core targets.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use apps::{App, Model, NBodyConfig, RunOpts};
use machine::{Machine, MachineConfig};
use o2k_sched::coro;
use o2k_serve::ServeConfig;

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

fn nbody_cfg() -> NBodyConfig {
    NBodyConfig {
        n: 2_048,
        steps: 1,
        ..NBodyConfig::default()
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        keys: 16_384,
        requests: 2_048,
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    }
}

fn bench_exec(c: &mut Criterion) {
    c.bench_function("coro_switch_100", |b| {
        b.iter(|| {
            let mut co = coro::Coro::new(coro::stack_bytes(), || {
                for _ in 0..100 {
                    coro::yield_current();
                }
            });
            let mut resumes = 0u32;
            while !co.resume() {
                resumes += 1;
            }
            resumes
        })
    });

    let nb = nbody_cfg();
    for p in [64, 256, 1024] {
        // The P=1024 cell is dominated by O(P^2) MP message volume —
        // simulated work no scheduler can elide — so its trajectory lives
        // under its own `_unfiltered` id (see BENCH_exec.json).
        let name = if p == 1024 {
            format!("nbody_p{p}_event_unfiltered")
        } else {
            format!("nbody_p{p}_event")
        };
        let nb = nb.clone();
        c.bench_function(&name, move |b| {
            b.iter(|| {
                apps::run_app_opts(
                    machine(p),
                    App::NBody,
                    Model::Mp,
                    &nb,
                    &apps::AmrConfig::small(),
                    RunOpts::det_event(),
                )
                .sim_time
            })
        });
    }

    let sv = serve_cfg();
    for p in [64, 256, 1024] {
        let name = format!("serve_p{p}_event");
        let sv = sv.clone();
        c.bench_function(&name, move |b| {
            b.iter(|| {
                o2k_serve::run_opts(machine(p), Model::Shmem, &sv, RunOpts::det_event()).sim_time
            })
        });
    }
}

/// One simulated handoff cycle: pick the min-clock PE, remove it (it now
/// runs), advance its clock, re-schedule it — the exact traffic
/// `CoopSched::hand_off`/`make_runnable` drive through the pending set.
fn bench_event_heap(c: &mut Criterion) {
    const P: usize = 1024;
    const HANDOFFS: usize = 1 << 20;
    c.bench_function("event_heap_indexed_p1024", |b| {
        b.iter(|| {
            let mut heap = o2k_sched::PeHeap::new(P);
            for pe in 0..P {
                heap.insert_or_update(pe, 0);
            }
            let mut sum = 0u64;
            for i in 0..HANDOFFS {
                let (clock, pe) = heap.peek().unwrap();
                heap.remove(pe);
                sum = sum.wrapping_add(clock);
                heap.insert_or_update(pe, clock + 10 + (i as u64 % 7));
            }
            sum
        })
    });
    c.bench_function("event_heap_lazy_p1024", |b| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        b.iter(|| {
            // The pre-refactor design: push-per-wake, stamp-per-PE, stale
            // entries skipped (and popped) when they surface.
            let mut heap: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
            let mut stamp = vec![0u64; P];
            let mut clock = vec![0u64; P];
            for (pe, s) in stamp.iter_mut().enumerate() {
                *s += 1;
                heap.push(Reverse((0, pe, *s)));
            }
            let mut sum = 0u64;
            for i in 0..HANDOFFS {
                let (c0, pe) = loop {
                    let &Reverse((c0, p, s)) = heap.peek().unwrap();
                    if stamp[p] == s {
                        break (c0, p);
                    }
                    heap.pop();
                };
                stamp[pe] += 1; // leave_runnable: lazy invalidation
                sum = sum.wrapping_add(c0);
                clock[pe] = c0 + 10 + (i as u64 % 7);
                stamp[pe] += 1;
                heap.push(Reverse((clock[pe], pe, stamp[pe])));
            }
            sum
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_exec, bench_event_heap
}
criterion_main!(benches);
