//! Critical-path analysis over a [`Trace`].
//!
//! Walks backward from the last event in the trace. Within a PE it
//! descends through contiguous spans; at a span carrying a [`Dep`] wait
//! edge (recv → matching send, barrier → last arrival, lock → previous
//! holder) it hops to the dependency's PE at the dependency's completion
//! time. Every step attributes exactly the walked interval, so the
//! attributions sum to the end-to-end simulated time: the result is the
//! chain of operations that actually determined the finish time.

use machine::{SimTime, TimeBreakdown, TimeCat};

use crate::{EventKind, Trace};

/// Attribution of the end-to-end simulated time along the critical path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathStats {
    /// End-to-end simulated time (= trace finish).
    pub total: SimTime,
    /// Time on the path per event kind, descending; sums (with
    /// `untracked`) to `total`.
    pub by_kind: Vec<(EventKind, SimTime)>,
    /// Time on the path per clock category.
    pub by_cat: TimeBreakdown,
    /// Path time not covered by any event (instrumentation gaps).
    pub untracked: SimTime,
    /// Cross-PE hops the path took through wait edges.
    pub hops: usize,
}

impl PathStats {
    /// Attributed path time (excluding `untracked`).
    pub fn attributed(&self) -> SimTime {
        self.by_kind.iter().map(|&(_, t)| t).sum()
    }
}

/// Compute the critical path of `trace`. Events must satisfy
/// [`Trace::validate`]; the walk is deterministic (ties break toward the
/// lowest PE).
pub fn critical_path(trace: &Trace) -> PathStats {
    let mut by_kind = [0u64; EventKind::ALL.len()];
    let mut by_cat = TimeBreakdown::default();
    let mut untracked = 0u64;
    let mut hops = 0usize;

    let finish = trace.finish();
    let mut stats = PathStats {
        total: finish,
        ..PathStats::default()
    };
    if finish == 0 {
        return stats;
    }

    let mut attribute = |kind: EventKind, cat: TimeCat, ns: SimTime| {
        by_kind[kind.index()] += ns;
        match cat {
            TimeCat::Busy => by_cat.busy += ns,
            TimeCat::Local => by_cat.local += ns,
            TimeCat::Remote => by_cat.remote += ns,
            TimeCat::Sync => by_cat.sync += ns,
        }
    };

    // Start on the PE that finished last (lowest PE on ties).
    let mut pe = trace
        .per_pe
        .iter()
        .enumerate()
        .filter_map(|(p, evs)| evs.last().map(|e| (e.t1, p)))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(_, p)| p)
        .expect("finish > 0 implies events exist");

    let mut cursor = finish;
    // Zero-length hops (barrier/lock edges land exactly at the cursor)
    // cannot loop forever in a well-formed trace, but a malformed one
    // could ping-pong; bound the walk defensively.
    let mut budget = 4 * trace.total_events() + 64;

    while cursor > 0 {
        budget -= 1;
        if budget == 0 {
            untracked += cursor;
            break;
        }
        let evs = &trace.per_pe[pe];
        let idx = evs.partition_point(|e| e.t1 < cursor);
        if idx == evs.len() || evs[idx].t0 >= cursor {
            // No span covers the cursor: fall through the gap.
            let fall_to = if idx == 0 { 0 } else { evs[idx - 1].t1 };
            untracked += cursor - fall_to;
            cursor = fall_to;
            continue;
        }
        let e = &evs[idx]; // covering span: t0 < cursor <= t1
        match e.dep {
            Some(d) if (d.pe as usize) < trace.pes() && d.pe as usize != pe && d.t <= cursor => {
                // The wait (plus any transit tail) is on the path up to the
                // moment the dependency completed; continue on its PE.
                attribute(e.kind, e.cat, cursor - d.t);
                cursor = d.t;
                pe = d.pe as usize;
                hops += 1;
            }
            _ => {
                attribute(e.kind, e.cat, cursor - e.t0);
                cursor = e.t0;
            }
        }
    }

    stats.by_kind = EventKind::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| by_kind[i] > 0)
        .map(|(i, &k)| (k, by_kind[i]))
        .collect();
    stats.by_kind.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    stats.by_cat = by_cat;
    stats.untracked = untracked;
    stats.hops = hops;
    stats
}

/// Render the attribution as an aligned text table.
pub fn render_table(stats: &PathStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "critical path: {} ns end-to-end, {} cross-PE hops\n",
        stats.total, stats.hops
    ));
    let pct = |ns: SimTime| {
        if stats.total == 0 {
            0.0
        } else {
            100.0 * ns as f64 / stats.total as f64
        }
    };
    out.push_str(&format!("  {:<18} {:>14} {:>7}\n", "kind", "ns", "%"));
    for &(kind, ns) in &stats.by_kind {
        out.push_str(&format!(
            "  {:<18} {:>14} {:>6.1}%\n",
            kind.name(),
            ns,
            pct(ns)
        ));
    }
    if stats.untracked > 0 {
        out.push_str(&format!(
            "  {:<18} {:>14} {:>6.1}%\n",
            "(untracked)",
            stats.untracked,
            pct(stats.untracked)
        ));
    }
    let b = stats.by_cat;
    out.push_str(&format!(
        "  by category: busy {} ({:.1}%), local {} ({:.1}%), remote {} ({:.1}%), sync {} ({:.1}%)\n",
        b.busy,
        pct(b.busy),
        b.local,
        pct(b.local),
        b.remote,
        pct(b.remote),
        b.sync,
        pct(b.sync)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ev, Dep};

    #[test]
    fn single_pe_path_is_its_own_timeline() {
        let t = Trace::new(vec![vec![
            ev(0, 0, 100, EventKind::Compute, TimeCat::Busy),
            ev(0, 100, 130, EventKind::Put, TimeCat::Remote),
        ]]);
        let s = critical_path(&t);
        assert_eq!(s.total, 130);
        assert_eq!(s.hops, 0);
        assert_eq!(s.untracked, 0);
        assert_eq!(s.attributed(), 130);
        assert_eq!(s.by_cat.busy, 100);
        assert_eq!(s.by_cat.remote, 30);
        assert_eq!(s.by_kind[0], (EventKind::Compute, 100));
    }

    #[test]
    fn recv_edge_hops_to_sender() {
        // PE0: compute 100, send [100,104]. PE1: wait [0,150] on the send
        // (sent at 104, arrival 150), recv [150,155], compute [155,200].
        let mut send = ev(0, 100, 104, EventKind::Send, TimeCat::Remote);
        send.peer = Some(1);
        let mut wait = ev(1, 0, 150, EventKind::RecvWait, TimeCat::Sync);
        wait.dep = Some(Dep { pe: 0, t: 104 });
        let t = Trace::new(vec![
            vec![ev(0, 0, 100, EventKind::Compute, TimeCat::Busy), send],
            vec![
                wait,
                ev(1, 150, 155, EventKind::Recv, TimeCat::Remote),
                ev(1, 155, 200, EventKind::Compute, TimeCat::Busy),
            ],
        ]);
        let s = critical_path(&t);
        assert_eq!(s.total, 200);
        assert_eq!(s.hops, 1);
        assert_eq!(s.untracked, 0);
        assert_eq!(s.attributed(), 200);
        let kind = |k: EventKind| {
            s.by_kind
                .iter()
                .find(|&&(x, _)| x == k)
                .map_or(0, |&(_, t)| t)
        };
        // 45 + 100 compute on both sides, 46 of blocking wait, 4 send, 5 recv.
        assert_eq!(kind(EventKind::Compute), 145);
        assert_eq!(kind(EventKind::RecvWait), 46);
        assert_eq!(kind(EventKind::Send), 4);
        assert_eq!(kind(EventKind::Recv), 5);
    }

    #[test]
    fn barrier_edge_hops_to_last_arriver() {
        // PE1 is the straggler; PE0's barrier wait must route the path
        // through PE1's compute.
        let mut wait = ev(0, 50, 100, EventKind::BarrierWait, TimeCat::Sync);
        wait.dep = Some(Dep { pe: 1, t: 100 });
        let t = Trace::new(vec![
            vec![
                ev(0, 0, 50, EventKind::Compute, TimeCat::Busy),
                wait,
                ev(0, 100, 110, EventKind::Barrier, TimeCat::Sync),
            ],
            vec![
                ev(1, 0, 100, EventKind::Compute, TimeCat::Busy),
                ev(1, 100, 110, EventKind::Barrier, TimeCat::Sync),
            ],
        ]);
        let s = critical_path(&t);
        assert_eq!(s.total, 110);
        assert_eq!(s.hops, 1);
        assert_eq!(s.untracked, 0);
        let kind = |k: EventKind| {
            s.by_kind
                .iter()
                .find(|&&(x, _)| x == k)
                .map_or(0, |&(_, t)| t)
        };
        // The straggler's 100 ns of compute is on the path; PE0's 50 ns is not.
        assert_eq!(kind(EventKind::Compute), 100);
        assert_eq!(kind(EventKind::Barrier), 10);
        assert_eq!(kind(EventKind::BarrierWait), 0);
    }

    #[test]
    fn gaps_become_untracked() {
        let t = Trace::new(vec![vec![
            ev(0, 0, 10, EventKind::Compute, TimeCat::Busy),
            ev(0, 40, 50, EventKind::Compute, TimeCat::Busy),
        ]]);
        let s = critical_path(&t);
        assert_eq!(s.total, 50);
        assert_eq!(s.untracked, 30);
        assert_eq!(s.attributed(), 20);
    }

    #[test]
    fn empty_trace_is_zero() {
        let s = critical_path(&Trace::default());
        assert_eq!(s, PathStats::default());
    }

    #[test]
    fn table_renders_rows_and_categories() {
        let t = Trace::new(vec![vec![ev(0, 0, 100, EventKind::Compute, TimeCat::Busy)]]);
        let table = render_table(&critical_path(&t));
        assert!(table.contains("100 ns end-to-end"));
        assert!(table.contains("compute"));
        assert!(table.contains("by category"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{Dep, Event, Recorder, Trace};
    use proptest::prelude::*;

    /// Feed random charge sequences through per-PE recorders the way the
    /// runtime does (clock-ordered, sometimes zero-length), building a
    /// trace plus reference per-category totals.
    fn build(seqs: &[Vec<(u16, u8, bool)>]) -> (Trace, Vec<TimeBreakdown>) {
        let mut per_pe = Vec::new();
        let mut refs = Vec::new();
        for (pe, seq) in seqs.iter().enumerate() {
            let mut rec = Recorder::new(true);
            let mut clock = 0u64;
            let mut b = TimeBreakdown::default();
            for &(dur, sel, wait) in seq {
                let dur = dur as u64;
                let cat = match sel % 4 {
                    0 => TimeCat::Busy,
                    1 => TimeCat::Local,
                    2 => TimeCat::Remote,
                    _ => TimeCat::Sync,
                };
                let kind = EventKind::ALL[sel as usize % EventKind::ALL.len()];
                let dep = if wait && !seqs.is_empty() {
                    Some(Dep {
                        pe: (pe as u32 + 1) % seqs.len() as u32,
                        t: clock,
                    })
                } else {
                    None
                };
                rec.record(Event {
                    pe: pe as u32,
                    t0: clock,
                    t1: clock + dur,
                    kind,
                    cat,
                    bytes: dur as u32,
                    peer: None,
                    dep,
                });
                clock += dur;
                match cat {
                    TimeCat::Busy => b.busy += dur,
                    TimeCat::Local => b.local += dur,
                    TimeCat::Remote => b.remote += dur,
                    TimeCat::Sync => b.sync += dur,
                }
            }
            per_pe.push(rec.take());
            refs.push(b);
        }
        (Trace::new(per_pe), refs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Recorded timestamps are monotone and non-overlapping per PE,
        /// and per-category event time equals the clock's accounting,
        /// for arbitrary charge sequences (including zero-length ones).
        #[test]
        fn recorder_preserves_order_and_conserves_time(
            seqs in proptest::collection::vec(
                proptest::collection::vec((0u16..300, any::<u8>(), any::<bool>()), 0..40),
                1..5,
            ),
        ) {
            let (trace, refs) = build(&seqs);
            prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
            for (pe, want) in refs.iter().enumerate() {
                prop_assert_eq!(trace.pe_breakdown(pe), *want);
            }
        }

        /// The critical-path attribution always partitions the finish
        /// time exactly: attributed + untracked == total.
        #[test]
        fn path_partitions_finish_time(
            seqs in proptest::collection::vec(
                proptest::collection::vec((0u16..300, any::<u8>(), any::<bool>()), 1..40),
                1..5,
            ),
        ) {
            let (trace, _) = build(&seqs);
            let s = critical_path(&trace);
            prop_assert_eq!(s.total, trace.finish());
            prop_assert_eq!(s.attributed() + s.untracked, s.total);
            prop_assert_eq!(
                s.by_cat.busy + s.by_cat.local + s.by_cat.remote + s.by_cat.sync,
                s.attributed()
            );
        }
    }
}
