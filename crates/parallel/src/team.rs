//! Team construction and execution.

use std::any::Any;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Barrier};

use machine::{ContentionMode, Counters, Machine, SimTime, TimeBreakdown};
use o2k_net::NetSim;
use o2k_sched::{CoopSched, SchedPolicy, SchedStats};
use parking_lot::Mutex;

use crate::ctx::Ctx;

/// Per-PE outcome of a team run: final virtual time, its breakdown, the
/// PE's event counters, and (when tracing) its recorded events.
#[derive(Debug, Clone)]
pub struct PeReport {
    /// PE index.
    pub pe: usize,
    /// Virtual time at which this PE finished.
    pub finish: SimTime,
    /// Categorised time accounting.
    pub breakdown: TimeBreakdown,
    /// Event counters.
    pub counters: Counters,
    /// Recorded trace events (empty unless the run was traced).
    pub events: Vec<o2k_trace::Event>,
}

/// Result of [`Team::run`]: the per-PE closure results (indexed by PE) and
/// the per-PE reports.
#[derive(Debug)]
pub struct TeamRun<R> {
    /// Closure return values, `results[pe]`.
    pub results: Vec<R>,
    /// Timing / counter reports, `reports[pe]`.
    pub reports: Vec<PeReport>,
    /// Scheduler statistics (policy, switch count, schedule fingerprint)
    /// when the run used a cooperative policy; `None` under
    /// [`SchedPolicy::Os`].
    pub sched: Option<SchedStats>,
    /// The interconnect contention model, populated when the machine ran
    /// with [`ContentionMode::Queued`] or [`ContentionMode::Fabric`];
    /// query it for [`NetSim::stats`], hotspot reports and utilization
    /// histograms.
    pub net: Option<Arc<NetSim>>,
}

impl<R> TeamRun<R> {
    /// Simulated execution time of the whole run: the latest PE finish time.
    pub fn sim_time(&self) -> SimTime {
        self.reports.iter().map(|r| r.finish).max().unwrap_or(0)
    }

    /// Sum of all PEs' counters.
    pub fn merged_counters(&self) -> Counters {
        let mut c = Counters::new();
        for r in &self.reports {
            c.merge(&r.counters);
        }
        c
    }

    /// Sum of all PEs' time breakdowns (total CPU-time view).
    pub fn merged_breakdown(&self) -> TimeBreakdown {
        let mut b = TimeBreakdown::default();
        for r in &self.reports {
            b = b.merged(&r.breakdown);
        }
        b
    }

    /// Whether any PE recorded trace events during this run.
    pub fn is_traced(&self) -> bool {
        self.reports.iter().any(|r| !r.events.is_empty())
    }

    /// Assemble the per-PE event streams into a [`o2k_trace::Trace`]
    /// (empty streams if the run was untraced). When the run was both
    /// traced and contended, recorded link-occupancy spans ride along as
    /// interconnect tracks.
    pub fn trace(&self) -> o2k_trace::Trace {
        let mut t = o2k_trace::Trace::new(self.reports.iter().map(|r| r.events.clone()).collect());
        if let Some(net) = &self.net {
            let (names, spans) = net.spans();
            t.link_names = names;
            t.link_spans = spans;
            let faults = net.fault_spans(self.sim_time());
            if !faults.is_empty() && t.link_names.is_empty() {
                // Spans may be off while a fault plan is active; fault
                // tracks still need link names to render.
                t.link_names = (0..net.links()).map(|id| net.link_name(id)).collect();
            }
            t.link_faults = faults;
        }
        t
    }
}

/// Shared synchronisation state for one team. Internal to this crate but
/// reachable from [`Ctx`].
pub(crate) struct TeamShared {
    /// Reusable OS barrier gating the clock-sync protocol.
    pub barrier: Barrier,
    /// Per-PE clock deposit slots for computing the barrier max.
    pub clock_slots: Vec<AtomicU64>,
    /// Per-PE blackboard slots for blackboard collectives.
    pub slots: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
    /// One OS barrier per node, for node-local synchronisation (hybrid
    /// programming models synchronise within an SMP node far more cheaply
    /// than across the machine).
    pub node_barriers: Vec<Barrier>,
    /// Cooperative scheduler when the team runs under a virtual-time
    /// policy; `None` under [`SchedPolicy::Os`] (free-running threads).
    /// When set, rendezvous go through scheduler gates instead of the OS
    /// barriers above.
    pub coop: Option<Arc<CoopSched>>,
    /// Interconnect contention model, present iff the machine config says
    /// [`ContentionMode::Queued`] or [`ContentionMode::Fabric`]. One
    /// instance per run: its per-resource occupancy state *is* the run's
    /// contention history.
    pub net: Option<Arc<NetSim>>,
}

impl TeamShared {
    fn new(machine: &Machine, coop: Option<Arc<CoopSched>>) -> Self {
        let pes = machine.pes();
        let topo = &machine.topology;
        let node_barriers = (0..topo.nodes())
            .map(|n| Barrier::new(topo.pes_on_node(n).count()))
            .collect();
        let net = match machine.config.contention {
            ContentionMode::Off => None,
            ContentionMode::Queued | ContentionMode::Fabric => {
                Some(Arc::new(NetSim::new(topo, &machine.config)))
            }
        };
        TeamShared {
            barrier: Barrier::new(pes),
            clock_slots: (0..pes).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..pes).map(|_| Mutex::new(None)).collect(),
            node_barriers,
            coop,
            net,
        }
    }
}

/// Substrate state a team needs to resume from a snapshot: the
/// scheduler's pick-sequence state, every PE's core state, and the
/// fabric's busy-until queues. Model and app state (heaps, regions,
/// domain data) are restored by the caller — this is only the layer
/// [`Team::run_resumed`] owns.
#[derive(Debug, Clone)]
pub struct TeamResume {
    /// Scheduler state exported at the snap gate. Applied in full when
    /// the resuming team runs the same policy; under a different
    /// cooperative policy only the virtual clocks carry over (the pick
    /// sequence, fingerprint and chooser stream start fresh).
    pub sched: o2k_sched::SchedResume,
    /// Per-PE core state, `cores[pe]`, applied to each [`Ctx`] at spawn.
    pub cores: Vec<o2k_snap::PeCore>,
    /// Fabric state from [`NetSim::export_state_bytes`]. Imported when
    /// this machine's resource table matches; silently skipped otherwise
    /// (restoring under a different topology or contention mode starts
    /// from a cold fabric, the correct model for "same computation,
    /// different machine").
    pub fabric: Option<Vec<u8>>,
}

/// A team of simulated PEs bound to a [`Machine`].
#[derive(Clone)]
pub struct Team {
    machine: Arc<Machine>,
    seed: u64,
    trace: bool,
    sched: SchedPolicy,
}

impl Team {
    /// A team covering every PE of `machine`. The scheduling policy
    /// defaults to [`o2k_sched::default_policy`] (`O2K_SCHED` env var or
    /// [`SchedPolicy::Os`]).
    pub fn new(machine: Arc<Machine>) -> Self {
        Team {
            machine,
            seed: 0x5EED_0816,
            trace: false,
            sched: o2k_sched::default_policy(),
        }
    }

    /// Set the seed for the per-PE deterministic RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scheduling policy for this team's runs (see
    /// [`SchedPolicy`]). [`SchedPolicy::Det`] makes runs bitwise
    /// reproducible; `Explore`/`BoundedPreempt` replay seeded
    /// interleavings for race hunting.
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Enable event tracing for runs of this team. Tracing is also enabled
    /// globally via [`o2k_trace::set_enabled`], which additionally pushes
    /// each run's trace to the process-wide sink.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The machine this team runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Run `f` once per PE and gather results.
    ///
    /// Under a cooperative policy each PE is a coroutine on the calling
    /// thread, resumed by the event core ([`CoopSched::drive`]); under
    /// [`SchedPolicy::Os`] each PE is a free-running OS thread. `f` is
    /// shared by reference; per-PE mutable state lives in the [`Ctx`].
    /// Panics in any PE propagate.
    pub fn run<R, F>(&self, f: F) -> TeamRun<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        self.run_resumed(None, f)
    }

    /// [`Team::run`], optionally resuming substrate state captured at a
    /// snapshot quiescence point: the scheduler is preseeded before any
    /// PE registers (so the first floor grant replays the snap-gate
    /// release), each PE's [`Ctx`] starts from its captured core, and the
    /// fabric's busy-until queues are reloaded. The closure `f` is
    /// expected to rebuild model/app state from the snapshot's own
    /// sections and enter its loop at the captured step.
    ///
    /// # Panics
    /// Panics when resuming under [`SchedPolicy::Os`] (free-running
    /// threads have no capturable schedule) or with a PE-count mismatch.
    pub fn run_resumed<R, F>(&self, resume: Option<TeamResume>, f: F) -> TeamRun<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        let pes = self.machine.pes();
        let coop = match self.sched {
            SchedPolicy::Os => None,
            policy => {
                let topo = &self.machine.topology;
                // Gate 0 is the team-wide rendezvous; gate 1+n is node n's.
                let mut gates = vec![pes];
                gates.extend((0..topo.nodes()).map(|n| topo.pes_on_node(n).count()));
                Some(Arc::new(CoopSched::new(pes, policy, gates)))
            }
        };
        if let Some(res) = &resume {
            assert!(
                !matches!(self.sched, SchedPolicy::Os),
                "cannot resume a snapshot under SchedPolicy::Os: free-running \
                 threads have no capturable schedule (pick a cooperative policy)"
            );
            assert_eq!(
                res.cores.len(),
                pes,
                "snapshot holds {} PE cores, this team has {pes}",
                res.cores.len()
            );
            let cs = coop.as_ref().expect("cooperative policy has a scheduler");
            if res.sched.policy == self.sched {
                cs.preseed_resume(&res.sched);
            } else {
                // Restoring under a different policy: virtual time carries
                // over, the pick sequence starts fresh.
                cs.preseed_clocks(&res.sched.clocks);
            }
        }
        let shared = Arc::new(TeamShared::new(&self.machine, coop.clone()));
        if let Some(bytes) = resume.as_ref().and_then(|r| r.fabric.as_deref()) {
            if let Some(net) = &shared.net {
                // Mismatch (different topology / contention mode) means a
                // cold fabric, by design — see [`TeamResume::fabric`].
                let _ = net.import_state_bytes(bytes);
            }
        }
        let globally_traced = o2k_trace::enabled();
        let trace = self.trace || globally_traced;
        if trace {
            if let Some(net) = &shared.net {
                net.set_record_spans(true);
            }
        }
        let mut out: Vec<Option<(R, PeReport)>> = (0..pes).map(|_| None).collect();

        // The per-PE body is the same on both vehicles; it returns the
        // PE's final clock for the scheduler's `finish`.
        let body = |pe: usize, slot: &mut Option<(R, PeReport)>| -> SimTime {
            let mut ctx = Ctx::new(
                pe,
                Arc::clone(&self.machine),
                Arc::clone(&shared),
                self.seed,
                trace,
            );
            if let Some(res) = &resume {
                ctx.apply_core(&res.cores[pe]);
            }
            let r = f(&mut ctx);
            let now = ctx.now();
            *slot = Some((r, ctx.into_report()));
            now
        };
        let body = &body;
        let outcome = match &coop {
            Some(cs) => cs.drive(
                out.iter_mut()
                    .enumerate()
                    .map(|(pe, slot)| move || body(pe, slot)),
            ),
            None => drive_threads(&mut out, body),
        };
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }

        let mut results = Vec::with_capacity(pes);
        let mut reports = Vec::with_capacity(pes);
        for slot in out {
            let (r, rep) = slot.expect("PE produced no result");
            results.push(r);
            reports.push(rep);
        }
        let run = TeamRun {
            results,
            reports,
            sched: coop.map(|cs| cs.stats()),
            net: shared.net.clone(),
        };
        if globally_traced {
            o2k_trace::sink_push(run.trace());
        }
        run
    }
}

/// [`SchedPolicy::Os`]: one free-running scoped OS thread per PE. Returns
/// the first PE panic, if any.
fn drive_threads<R: Send>(
    out: &mut [Option<(R, PeReport)>],
    body: &(impl Fn(usize, &mut Option<(R, PeReport)>) -> SimTime + Sync),
) -> Result<(), Box<dyn Any + Send>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .iter_mut()
            .enumerate()
            .map(|(pe, slot)| scope.spawn(move || body(pe, slot)))
            .collect();
        let mut first = Ok(());
        for h in handles {
            if let Err(payload) = h.join() {
                first = first.and(Err(payload));
            }
        }
        first
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{MachineConfig, TimeCat};

    fn team(pes: usize) -> Team {
        Team::new(Arc::new(Machine::new(pes, MachineConfig::test_tiny())))
    }

    #[test]
    fn run_returns_per_pe_results_in_order() {
        let t = team(4);
        let run = t.run(|ctx| ctx.pe() * 10);
        assert_eq!(run.results, vec![0, 10, 20, 30]);
        assert_eq!(run.reports.len(), 4);
        for (i, r) in run.reports.iter().enumerate() {
            assert_eq!(r.pe, i);
        }
    }

    #[test]
    fn sim_time_is_max_finish() {
        let t = team(4);
        let run = t.run(|ctx| {
            ctx.compute((ctx.pe() as u64 + 1) * 100);
        });
        assert_eq!(run.sim_time(), 400);
        assert_eq!(run.reports[2].finish, 300);
    }

    #[test]
    fn merged_breakdown_sums() {
        let t = team(3);
        let run = t.run(|ctx| ctx.compute(50));
        assert_eq!(run.merged_breakdown().busy, 150);
    }

    #[test]
    fn single_pe_team_works() {
        let t = team(1);
        let run = t.run(|ctx| {
            ctx.barrier();
            42
        });
        assert_eq!(run.results, vec![42]);
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let draws = |seed: u64| {
            Team::new(Arc::new(Machine::new(3, MachineConfig::test_tiny())))
                .seed(seed)
                .run(|ctx| ctx.rng_u64())
                .results
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let d = draws(7);
        assert_ne!(d[0], d[1], "per-PE streams must differ");
    }

    #[test]
    fn sync_time_charged_while_waiting() {
        let t = team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                ctx.compute(1_000);
            }
            ctx.barrier();
        });
        // PE 1 waited for PE 0's 1000 ns of work.
        assert!(run.reports[1].breakdown.sync >= 1_000);
        assert_eq!(run.reports[0].finish, run.reports[1].finish);
    }

    #[test]
    fn runs_1024_pes() {
        let t = team(1024).sched(SchedPolicy::Det);
        let run = t.run(|ctx| {
            ctx.compute(10 + ctx.pe() as u64 % 3);
            ctx.barrier();
            ctx.pe() as u64
        });
        assert_eq!(run.results.len(), 1024);
        assert!(run.results.iter().copied().eq(0..1024));
    }

    #[test]
    fn pe_panics_propagate_the_original_payload() {
        let t = team(3).sched(SchedPolicy::Det);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.run(|ctx| {
                if ctx.pe() == 1 {
                    panic!("pe 1 exploded");
                }
                ctx.barrier(); // peers block here and must unwind
            });
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("pe 1 exploded"), "wrong payload: {msg}");
    }

    /// Cooperative policies run the whole team on the calling thread;
    /// `os` runs one free OS thread per PE and builds no scheduler.
    #[test]
    fn only_the_os_policy_spawns_threads() {
        let caller = std::thread::current().id();
        let on_caller = |policy| {
            team(3)
                .sched(policy)
                .run(|_| std::thread::current().id() == caller)
        };
        let det = on_caller(SchedPolicy::Det);
        assert_eq!(det.results, vec![true; 3]);
        assert!(det.sched.is_some());
        let os = on_caller(SchedPolicy::Os);
        assert_eq!(os.results, vec![false; 3]);
        assert!(os.sched.is_none());
    }

    /// One round of the resume-test workload: an RNG draw, a PE- and
    /// round-dependent compute, a barrier.
    fn resume_round(ctx: &mut Ctx, acc: u64, round: usize) -> u64 {
        let acc = acc.wrapping_mul(31).wrapping_add(ctx.rng_u64());
        ctx.compute(100 + (ctx.pe() as u64 * 13 + round as u64 * 7) % 50);
        ctx.barrier();
        acc
    }

    /// Full substrate capture/resume round trip: a straight run exports
    /// its state at a mid-run snap gate; a second team resumed from it
    /// must replay the tail bitwise — results, sim time, counters,
    /// breakdowns, and the schedule fingerprint.
    #[test]
    fn run_resumed_replays_straight_run_tail_bitwise() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const CUT: usize = 3;
        const ROUNDS: usize = 6;
        for policy in [SchedPolicy::Det, SchedPolicy::Explore { seed: 11 }] {
            let cores: Mutex<Vec<Option<o2k_snap::PeCore>>> = Mutex::new(vec![None; 3]);
            let sched_state = Mutex::new(None);
            let claimed = AtomicBool::new(false);
            let straight = team(3).sched(policy).run(|ctx| {
                let mut acc = 0;
                for round in 0..CUT {
                    acc = resume_round(ctx, acc, round);
                }
                // The snap gate: deposit core state host-side, rendezvous
                // at zero virtual cost, then the first PE past the gate
                // (the floor holder) exports the scheduler state.
                cores.lock()[ctx.pe()] = Some(ctx.export_core());
                ctx.os_barrier();
                if !claimed.swap(true, Ordering::SeqCst) {
                    *sched_state.lock() = Some(ctx.coop().unwrap().export_resume());
                }
                let mut tail_acc = 0;
                for round in CUT..ROUNDS {
                    tail_acc = resume_round(ctx, tail_acc, round);
                }
                (acc, tail_acc)
            });

            let resume = TeamResume {
                sched: sched_state.into_inner().expect("floor holder exported"),
                cores: cores
                    .into_inner()
                    .into_iter()
                    .map(|c| c.expect("every PE deposited"))
                    .collect(),
                fabric: None,
            };
            let resumed = team(3).sched(policy).run_resumed(Some(resume), |ctx| {
                let mut tail_acc = 0;
                for round in CUT..ROUNDS {
                    tail_acc = resume_round(ctx, tail_acc, round);
                }
                tail_acc
            });

            let straight_tails: Vec<u64> = straight.results.iter().map(|&(_, t)| t).collect();
            assert_eq!(resumed.results, straight_tails, "{policy}: tail values");
            assert_eq!(resumed.sim_time(), straight.sim_time(), "{policy}");
            assert_eq!(
                resumed.merged_counters(),
                straight.merged_counters(),
                "{policy}"
            );
            assert_eq!(
                resumed.merged_breakdown(),
                straight.merged_breakdown(),
                "{policy}"
            );
            let (ss, rs) = (straight.sched.unwrap(), resumed.sched.unwrap());
            assert_eq!(rs.fingerprint, ss.fingerprint, "{policy}: fingerprint");
            assert_eq!(rs.switches, ss.switches, "{policy}: switches");
        }
    }

    /// Restoring under a *different* policy keeps virtual time and core
    /// state but starts a fresh pick sequence.
    #[test]
    fn run_resumed_under_new_policy_keeps_clocks_not_fingerprint() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cores: Mutex<Vec<Option<o2k_snap::PeCore>>> = Mutex::new(vec![None; 3]);
        let sched_state = Mutex::new(None);
        let claimed = AtomicBool::new(false);
        let straight = team(3).sched(SchedPolicy::Det).run(|ctx| {
            let mut acc = 0;
            for round in 0..3 {
                acc = resume_round(ctx, acc, round);
            }
            cores.lock()[ctx.pe()] = Some(ctx.export_core());
            ctx.os_barrier();
            if !claimed.swap(true, Ordering::SeqCst) {
                *sched_state.lock() = Some(ctx.coop().unwrap().export_resume());
            }
            ctx.now()
        });
        let cut_time = straight.results[0];
        let resume = TeamResume {
            sched: sched_state.into_inner().unwrap(),
            cores: cores.into_inner().into_iter().map(|c| c.unwrap()).collect(),
            fabric: None,
        };
        let resumed =
            team(3)
                .sched(SchedPolicy::Explore { seed: 5 })
                .run_resumed(Some(resume), |ctx| {
                    assert_eq!(ctx.now(), cut_time, "virtual clock must carry over");
                    resume_round(ctx, 0, 3);
                    ctx.now()
                });
        assert!(resumed.sim_time() > cut_time);
        assert_eq!(
            resumed.sched.unwrap().policy,
            SchedPolicy::Explore { seed: 5 }
        );
    }

    #[test]
    fn advance_with_category() {
        let t = team(1);
        let run = t.run(|ctx| {
            ctx.advance(25, TimeCat::Remote);
            ctx.advance(10, TimeCat::Local);
        });
        let b = &run.reports[0].breakdown;
        assert_eq!(b.remote, 25);
        assert_eq!(b.local, 10);
    }
}
