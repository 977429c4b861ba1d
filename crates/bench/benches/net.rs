//! Criterion micro-benchmarks of the contended-fabric hot path.
//!
//! Two angles on the `LinkSpan` arena (see `o2k_net::SpanArena`):
//!
//! * `span_sink_*` — the allocation delta in isolation: first-fill of one
//!   million spans into the chunked arena versus a flat growing `Vec`.
//!   The flat `Vec` doubles and copies as it grows; the arena allocates a
//!   fixed chunk every 16 Ki pushes and never moves a span. A second pair
//!   measures the steady state (refill after `clear`), where the arena
//!   recycles chunks and the `Vec` keeps its capacity — the gap there is
//!   bookkeeping only.
//! * `fabric_route_recorded_*` — the delta in context: routing transfers
//!   through a 32-node queued fabric with span recording on, the exact
//!   path `repro --trace` and the hotspot reports exercise.
//! * `fabric_charge_scalar_16` — one coherence-protocol window (a line
//!   fill plus an invalidation sweep, 16 destinations) priced as 16
//!   serialised `route` calls, the way the CC-SAS runtime charges it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use machine::{MachineConfig, Topology};
use o2k_net::{NetSim, SpanArena};
use o2k_trace::LinkSpan;

const SPANS: usize = 1 << 20;

fn span(i: usize) -> LinkSpan {
    LinkSpan {
        link: (i % 97) as u32,
        t0: i as u64,
        t1: i as u64 + 40,
        bytes: 128,
        pe: (i % 64) as u32,
    }
}

fn bench_span_sink(c: &mut Criterion) {
    c.bench_function("span_sink_arena_first_fill_1m", |b| {
        b.iter_batched(
            SpanArena::default,
            |mut a| {
                for i in 0..SPANS {
                    a.push(black_box(span(i)));
                }
                a
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("span_sink_flatvec_first_fill_1m", |b| {
        b.iter_batched(
            Vec::new,
            |mut v: Vec<LinkSpan>| {
                for i in 0..SPANS {
                    v.push(black_box(span(i)));
                }
                v
            },
            BatchSize::LargeInput,
        )
    });
    // Steady state: capacity already exists on both sides.
    let mut warm_arena = SpanArena::default();
    for i in 0..SPANS {
        warm_arena.push(span(i));
    }
    warm_arena.clear();
    c.bench_function("span_sink_arena_refill_1m", |b| {
        b.iter(|| {
            for i in 0..SPANS {
                warm_arena.push(black_box(span(i)));
            }
            warm_arena.clear();
        })
    });
    let mut warm_vec: Vec<LinkSpan> = Vec::with_capacity(SPANS);
    c.bench_function("span_sink_flatvec_refill_1m", |b| {
        b.iter(|| {
            for i in 0..SPANS {
                warm_vec.push(black_box(span(i)));
            }
            warm_vec.clear();
        })
    });
}

fn bench_fabric_route(c: &mut Criterion) {
    let pes = 64;
    let topo = Topology::new(pes, 2);
    let cfg = MachineConfig::origin2000();
    let nodes = pes / 2;
    for (name, record) in [
        ("fabric_route_64pe_plain", false),
        ("fabric_route_64pe_recorded", true),
    ] {
        c.bench_function(name, |b| {
            let net = NetSim::new(&topo, &cfg);
            net.set_record_spans(record);
            let mut t = 0u64;
            b.iter(|| {
                t += 50;
                let src = (t as usize / 50) % nodes;
                let dst = (src + 7) % nodes;
                black_box(net.route((src * 2) as u32, src, dst, 256, t))
            })
        });
    }
}

fn bench_charge_window(c: &mut Criterion) {
    let pes = 64;
    let topo = Topology::new(pes, 2);
    let cfg = MachineConfig::origin2000();
    let nodes = pes / 2;
    const RUN: usize = 16;
    c.bench_function("fabric_charge_scalar_16", |b| {
        let net = NetSim::new(&topo, &cfg);
        let mut t = 0u64;
        b.iter(|| {
            t += 50;
            let src = (t as usize / 50) % nodes;
            let mut pending = 0u64;
            for i in 0..RUN {
                let dst = (src + 1 + i) % nodes;
                let r = net.route((src * 2) as u32, src, dst, 128, t + pending);
                pending += r.delay;
            }
            black_box(pending)
        })
    });
}

criterion_group!(
    benches,
    bench_span_sink,
    bench_fabric_route,
    bench_charge_window
);
criterion_main!(benches);
