//! # o2k-sched — deterministic cooperative scheduling for the substrate
//!
//! The simulator prices every operation in *virtual* nanoseconds, but the
//! seed ran one free-running OS thread per PE: whenever two PEs touched
//! the same coherence state (a directory entry, a first-touch page-home
//! CAS, a self-scheduling cursor), the *host* scheduler decided the
//! order. Checksums were protected by barriers, yet CC-SAS simulated
//! times and the local/remote miss split jittered a few percent run to
//! run (EXPERIMENTS.md's old D3 deviation).
//!
//! This crate replaces free-running threads with **cooperative
//! virtual-time stepping**: at most one PE holds the *floor* at a time,
//! and every yield point hands the floor to the runnable PE chosen by a
//! [`SchedPolicy`]:
//!
//! * [`SchedPolicy::Det`] — the runnable PE with the lowest simulated
//!   clock runs next, ties broken by PE id. This is exactly the order a
//!   hardware machine with those timings would exhibit, and it makes
//!   every run bitwise reproducible: simulated times, [`machine`]
//!   counters, traces, page homes, everything.
//! * [`SchedPolicy::Explore`] — seeded uniformly-random choice among
//!   runnable PEs. Each seed is one reproducible interleaving; sweeping
//!   seeds explores the schedule space (the race-hunting harness).
//! * [`SchedPolicy::BoundedPreempt`] — runs virtual-time order but
//!   spends a bounded budget of seeded preemptions, modelling "mostly
//!   fair with a few adversarial switches" (cf. PCT-style probabilistic
//!   concurrency testing).
//! * [`SchedPolicy::Os`] — no floor at all: the seed's free-running
//!   behaviour, kept as an explicit baseline policy. It runs one OS
//!   thread per PE and never builds a [`CoopSched`].
//!
//! The scheduler itself is a [`CoopSched`]: one mutex-protected table of
//! per-PE states. PEs register when they start (the first pick happens
//! once everyone arrived), `yield_now` at instrumented points,
//! `block`/`unblock` around mailbox and lock waits, rendezvous on
//! `gate_wait` (barriers), and finish at the end. A panicking PE poisons
//! the scheduler so every blocked peer unwinds instead of hanging the
//! team.
//!
//! Everything here is *simulation machinery*: it decides host execution
//! order only, and never charges virtual time itself.
//!
//! ## The execution core
//!
//! Every cooperative policy runs on one event core. Each PE is a stackful
//! coroutine ([`coro`]) on the calling OS thread, and [`CoopSched::drive`]
//! is the discrete-event loop that resumes them: an indexed binary heap
//! keyed on `(virtual clock, PE id)` yields the next PE under `det`, and
//! "waiting for the floor" is a ~20 ns user-space stack switch. This is
//! the corten-style simulation core that reaches P=1024 and beyond; a
//! P-PE team costs P lazily-committed coroutine stacks, not P OS threads.

use std::any::Any;
use std::sync::OnceLock;

use machine::SimTime;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod coro;

/// Panic message used when a PE unwinds because *another* PE panicked or
/// the team deadlocked. [`team`](../parallel) filters these out when
/// picking which payload to propagate, so the original panic surfaces.
pub const POISON_MSG: &str = "o2k-sched: peer PE panicked or team deadlocked";

/// Scheduling policy for a team run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Free-running OS threads (the seed's behaviour). Host interleaving
    /// decides coherence races; CC-SAS timings jitter a few percent.
    Os,
    /// Deterministic virtual-time order: lowest simulated clock runs,
    /// ties to the lowest PE id. Bitwise-reproducible runs.
    Det,
    /// Seeded uniformly-random choice among runnable PEs; each seed is
    /// one reproducible interleaving.
    Explore {
        /// Schedule seed; same seed ⇒ same interleaving.
        seed: u64,
    },
    /// Virtual-time order with up to `budget` seeded preemptions that
    /// each pick a random runnable PE instead.
    BoundedPreempt {
        /// Preemption-point seed.
        seed: u64,
        /// Maximum number of preemptions spent over the whole run.
        budget: u32,
    },
}

impl SchedPolicy {
    /// Parse the `--sched` / `O2K_SCHED` syntax: `os`, `det`,
    /// `explore:<seed>`, `bp:<seed>:<budget>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(seed) = s.strip_prefix("explore:") {
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("bad explore seed {seed:?}: {e}"))?;
            return Ok(SchedPolicy::Explore { seed });
        }
        if let Some(rest) = s.strip_prefix("bp:") {
            let (seed, budget) = rest
                .split_once(':')
                .ok_or_else(|| format!("bp needs <seed>:<budget>, got {rest:?}"))?;
            return Ok(SchedPolicy::BoundedPreempt {
                seed: seed
                    .parse::<u64>()
                    .map_err(|e| format!("bad bp seed {seed:?}: {e}"))?,
                budget: budget
                    .parse::<u32>()
                    .map_err(|e| format!("bad bp budget {budget:?}: {e}"))?,
            });
        }
        match s {
            "os" => Ok(SchedPolicy::Os),
            "det" => Ok(SchedPolicy::Det),
            other => Err(format!(
                "unknown scheduler {other:?} (expected os, det, explore:<seed> or bp:<seed>:<budget>)"
            )),
        }
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchedPolicy::parse(s)
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedPolicy::Os => write!(f, "os"),
            SchedPolicy::Det => write!(f, "det"),
            SchedPolicy::Explore { seed } => write!(f, "explore:{seed}"),
            SchedPolicy::BoundedPreempt { seed, budget } => write!(f, "bp:{seed}:{budget}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide default policy
// ---------------------------------------------------------------------------

/// The policy a `Team` uses when none is set explicitly: `O2K_SCHED` from
/// the environment, read once per process, else [`SchedPolicy::Os`] (the
/// seed's behaviour). Runs that need a particular policy pass it as a
/// value (`Team::sched`, `RunOpts::sched`); this fallback exists so the
/// whole test suite can be rerun under one policy from the environment.
pub fn default_policy() -> SchedPolicy {
    static ENV: OnceLock<SchedPolicy> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("O2K_SCHED")
            .ok()
            .and_then(|s| SchedPolicy::parse(&s).ok())
            .unwrap_or(SchedPolicy::Os)
    })
}

// ---------------------------------------------------------------------------
// Cooperative scheduler
// ---------------------------------------------------------------------------

/// Why a PE gave up the floor without staying runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting at rendezvous gate `gate` (0 = team-wide, 1+n = node n).
    Gate(usize),
    /// Waiting for a [`SimLock`](../parallel) holder to release.
    Lock,
    /// Waiting for a matching message to arrive in the mailbox.
    Mailbox,
    /// The PE's transfer hit a dead interconnect link with no detour (a
    /// network partition under fault injection). Never unblocked: the PE
    /// parks here so the deadlock detector can report *partition*, not a
    /// logic bug.
    DeadLink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Unstarted,
    Runnable,
    Running,
    Blocked(BlockReason),
    Done,
}

enum Chooser {
    Det,
    Explore(SmallRng),
    BoundedPreempt { rng: SmallRng, budget: u32 },
}

// ---------------------------------------------------------------------------
// Indexed event heap
// ---------------------------------------------------------------------------

/// `pos` sentinel for a PE with no entry in the [`PeHeap`].
const HEAP_ABSENT: usize = usize::MAX;

/// Fixed-capacity indexed binary min-heap over `(clock, pe)` keys — the
/// event core's pending-PE set.
///
/// The original event core used `BinaryHeap<Reverse<(clock, pe, stamp)>>`
/// with lazy invalidation: every wake pushed a fresh entry and bumped a
/// per-PE stamp, and stale entries were skipped when they surfaced. At
/// P=1024 a busy run churns millions of short-lived heap entries through
/// the allocator and the heap grows past the live-PE count between
/// compactions. This structure replaces that with two arrays sized once
/// at construction and never reallocated:
///
/// * `heap` — the live `(clock, pe)` entries in binary-heap order; at
///   most one per PE, so capacity `npes` suffices forever.
/// * `pos` — per-PE slot index into `heap` (`HEAP_ABSENT` when the PE has
///   no entry), the classic indexed-heap back-pointer that makes
///   [`PeHeap::remove`] and in-place reschedule O(log P) with *exact*
///   deletion instead of tombstones.
///
/// Keys compare lexicographically, so min order is lowest clock with ties
/// to the lowest PE id — exactly [`SchedPolicy::Det`]'s pick order, which
/// is why [`PeHeap::peek`] never has to skip anything: every entry is
/// live by construction.
#[derive(Debug, Clone)]
pub struct PeHeap {
    heap: Vec<(SimTime, usize)>,
    pos: Vec<usize>,
}

impl PeHeap {
    /// A heap for PEs `0..npes`, with all storage allocated up front.
    pub fn new(npes: usize) -> Self {
        PeHeap {
            heap: Vec::with_capacity(npes),
            pos: vec![HEAP_ABSENT; npes],
        }
    }

    /// Number of PEs currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no PE is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `pe` currently has an entry.
    pub fn contains(&self, pe: usize) -> bool {
        self.pos[pe] != HEAP_ABSENT
    }

    /// The minimum `(clock, pe)` entry, without removing it.
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        self.heap.first().copied()
    }

    /// Schedule `pe` at `clock`, or reschedule it in place if already
    /// present (the decrease/increase-key the lazy design could not do).
    pub fn insert_or_update(&mut self, pe: usize, clock: SimTime) {
        let i = self.pos[pe];
        if i == HEAP_ABSENT {
            self.heap.push((clock, pe));
            let i = self.heap.len() - 1;
            self.pos[pe] = i;
            self.sift_up(i);
        } else {
            let old = self.heap[i].0;
            self.heap[i].0 = clock;
            if clock < old {
                self.sift_up(i);
            } else if clock > old {
                self.sift_down(i);
            }
        }
    }

    /// Remove `pe`'s entry if present; returns whether one was removed.
    /// Tolerates absent PEs so the poison path can sweep any status.
    pub fn remove(&mut self, pe: usize) -> bool {
        let i = self.pos[pe];
        if i == HEAP_ABSENT {
            return false;
        }
        self.pos[pe] = HEAP_ABSENT;
        let last = self.heap.len() - 1;
        if i != last {
            let moved = self.heap[last];
            self.heap[i] = moved;
            self.pos[moved.1] = i;
        }
        self.heap.pop();
        if i < self.heap.len() {
            if i == 0 {
                // Removing the min (every det pick): the bottom-row
                // filler almost always sinks back to a leaf, so take it
                // straight down along the smaller-child spine — one
                // comparison per level — and fix up from there, the same
                // strategy `BinaryHeap::pop` uses.
                self.sift_down_to_bottom(0);
            } else if self.heap[i] < self.heap[(i - 1) / 2] {
                // An arbitrary slot's filler may need to travel either
                // direction.
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        true
    }

    // Both sifts move a *hole* instead of swapping pairwise: the element
    // being placed is held in a register and written exactly once, and
    // every displaced entry gets exactly one heap write and one pos
    // write — half the memory traffic of swap-based sifting, which is
    // what this structure races `BinaryHeap`'s hole-based sift against.

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if item >= self.heap[parent] {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1] = i;
            i = parent;
        }
        self.heap[i] = item;
        self.pos[item.1] = i;
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.heap.len() && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if item <= self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1] = i;
            i = child;
        }
        self.heap[i] = item;
        self.pos[item.1] = i;
    }

    /// Sink the hole at `i` to a leaf along the smaller-child spine
    /// without comparing against the displaced item, then let `sift_up`
    /// find the item's true slot from below.
    fn sift_down_to_bottom(&mut self, mut i: usize) {
        let item = self.heap[i];
        let end = self.heap.len();
        let mut child = 2 * i + 1;
        while child + 1 < end {
            if self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1] = i;
            i = child;
            child = 2 * i + 1;
        }
        if child < end {
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1] = i;
            i = child;
        }
        self.heap[i] = item;
        self.pos[item.1] = i;
        self.sift_up(i);
    }
}

struct Gate {
    members: usize,
    arrived: usize,
}

struct Inner {
    status: Vec<Status>,
    /// Advisory per-PE virtual clocks, refreshed at every yield point.
    clock: Vec<SimTime>,
    registered: usize,
    done: usize,
    poisoned: bool,
    current: Option<usize>,
    chooser: Chooser,
    gates: Vec<Gate>,
    switches: u64,
    fingerprint: u64,
    /// Pending PEs keyed `(clock, pe)`, exactly the `Runnable` set: PEs
    /// are inserted on wake and removed *exactly* when they leave
    /// `Runnable`, so the top entry is always the det pick with no stale
    /// tombstones to skip and no allocation after construction.
    heap: PeHeap,
    /// The PE [`CoopSched::drive`] must resume next, set by `hand_off`
    /// when the floor goes to a PE other than the caller.
    next_resume: Option<usize>,
    /// One-shot direct grant consumed by the first `hand_off` after a
    /// [`CoopSched::preseed_resume`]: the floor goes straight to the PE
    /// that held it when the snapshot was taken, with no pick, no
    /// fingerprint update and no switch count — that grant was already
    /// accounted in the run the snapshot came from.
    resume_grant: Option<usize>,
}

impl Inner {
    fn runnable(&self) -> impl Iterator<Item = usize> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(p, _)| p)
    }

    /// Transition `pe` to `Runnable` with its clock already final,
    /// scheduling it in the event heap.
    fn make_runnable(&mut self, pe: usize) {
        self.status[pe] = Status::Runnable;
        self.heap.insert_or_update(pe, self.clock[pe]);
    }

    /// Virtual-time order: lowest clock, ties to the lowest PE id.
    ///
    /// Peeks the indexed heap — O(1), since exact removal keeps every
    /// entry live — without consuming the winner: `BoundedPreempt` may
    /// overrule the det base pick, and the chosen PE's entry is removed
    /// when it leaves `Runnable`.
    fn pick_det(&mut self) -> Option<usize> {
        let picked = self.heap.peek().map(|(c, p)| {
            debug_assert_eq!(self.status[p], Status::Runnable, "heap entry left behind");
            debug_assert_eq!(c, self.clock[p], "heap entry with stale clock");
            let _ = c;
            p
        });
        debug_assert_eq!(
            picked,
            self.runnable().min_by_key(|&p| (self.clock[p], p)),
            "heap pick diverged from the linear-scan reference"
        );
        picked
    }

    /// Pick the next PE to run among the runnable ones, or `None` if
    /// nothing is runnable.
    fn pick(&mut self) -> Option<usize> {
        match &self.chooser {
            Chooser::Det => self.pick_det(),
            Chooser::Explore { .. } => {
                let cands: Vec<usize> = self.runnable().collect();
                if cands.is_empty() {
                    return None;
                }
                let Chooser::Explore(rng) = &mut self.chooser else {
                    unreachable!()
                };
                let i = (rng.next_u64() % cands.len() as u64) as usize;
                Some(cands[i])
            }
            Chooser::BoundedPreempt { .. } => {
                let base = self.pick_det()?;
                let cands: Vec<usize> = self.runnable().collect();
                let Chooser::BoundedPreempt { rng, budget } = &mut self.chooser else {
                    unreachable!()
                };
                if *budget > 0 && cands.len() > 1 && rng.gen_bool(0.25) {
                    *budget -= 1;
                    let i = (rng.next_u64() % cands.len() as u64) as usize;
                    Some(cands[i])
                } else {
                    Some(base)
                }
            }
        }
    }
}

/// Statistics of one scheduled run, read back after the team joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Policy that produced the run.
    pub policy: SchedPolicy,
    /// Number of floor handoffs to a *different* PE.
    pub switches: u64,
    /// FNV-style fingerprint of the whole pick sequence — two runs with
    /// equal fingerprints took the same schedule.
    pub fingerprint: u64,
}

/// Scheduler state captured at a snapshot quiescence point, sufficient to
/// resume a fresh [`CoopSched`] exactly where the captured one stood.
///
/// Exported by the floor-holding PE *after* the snap gate released (so
/// `fingerprint`/`switches` include the release pick and `current` is the
/// exporter itself), and fed to [`CoopSched::preseed_resume`] before any
/// PE registers in the restored team.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedResume {
    /// Policy of the run the snapshot was taken from. A restore under a
    /// *different* policy must use [`CoopSched::preseed_clocks`] instead:
    /// the fingerprint and chooser stream are policy-specific.
    pub policy: SchedPolicy,
    /// Per-PE advisory clocks at the quiescence point.
    pub clocks: Vec<SimTime>,
    /// Pick-sequence fingerprint including the snap-gate release pick.
    pub fingerprint: u64,
    /// Floor switches so far, including the release pick.
    pub switches: u64,
    /// The PE holding the floor after the snap gate — the one the
    /// restored run's first hand_off must grant to directly.
    pub current: usize,
    /// Raw RNG state of a seeded chooser (`Explore`/`BoundedPreempt`);
    /// zero (unused) under `Det`.
    pub rng_state: u64,
    /// Remaining preemption budget of a `BoundedPreempt` chooser; zero
    /// otherwise.
    pub budget: u32,
}

/// The cooperative scheduler shared by one team run. See the crate docs
/// for the protocol.
pub struct CoopSched {
    npes: usize,
    policy: SchedPolicy,
    inner: Mutex<Inner>,
}

impl CoopSched {
    /// Build a scheduler for `npes` PEs, to be run by [`Self::drive`].
    /// `gate_sizes[0]` is the team-wide rendezvous size (= `npes`);
    /// `gate_sizes[1 + n]` the PE count of node `n`.
    ///
    /// # Panics
    /// Panics on [`SchedPolicy::Os`] (no scheduler is needed) or an empty
    /// team.
    pub fn new(npes: usize, policy: SchedPolicy, gate_sizes: Vec<usize>) -> Self {
        assert!(npes > 0, "empty team");
        let chooser = match policy {
            SchedPolicy::Os => panic!("SchedPolicy::Os does not use a CoopSched"),
            SchedPolicy::Det => Chooser::Det,
            SchedPolicy::Explore { seed } => Chooser::Explore(SmallRng::seed_from_u64(seed)),
            SchedPolicy::BoundedPreempt { seed, budget } => Chooser::BoundedPreempt {
                rng: SmallRng::seed_from_u64(seed),
                budget,
            },
        };
        CoopSched {
            npes,
            policy,
            inner: Mutex::new(Inner {
                status: vec![Status::Unstarted; npes],
                clock: vec![0; npes],
                registered: 0,
                done: 0,
                poisoned: false,
                current: None,
                chooser,
                gates: gate_sizes
                    .into_iter()
                    .map(|members| Gate {
                        members,
                        arrived: 0,
                    })
                    .collect(),
                switches: 0,
                fingerprint: 0xcbf2_9ce4_8422_2325,
                heap: PeHeap::new(npes),
                next_resume: None,
                resume_grant: None,
            }),
        }
    }

    /// The policy this scheduler runs.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Run statistics so far (final once the team joined).
    pub fn stats(&self) -> SchedStats {
        let inner = self.inner.lock();
        SchedStats {
            policy: self.policy,
            switches: inner.switches,
            fingerprint: inner.fingerprint,
        }
    }

    /// Export resumable state at a quiescence point. Must be called by
    /// the PE currently holding the floor, with every other PE runnable
    /// or done (i.e. right after a team-wide gate released) — mid-wait
    /// blocked states are not capturable.
    ///
    /// # Panics
    /// Panics if no PE holds the floor or a PE is blocked.
    pub fn export_resume(&self) -> SchedResume {
        let inner = self.inner.lock();
        let current = inner.current.expect("export_resume: no PE holds the floor");
        assert!(
            !inner
                .status
                .iter()
                .any(|s| matches!(s, Status::Blocked(_) | Status::Unstarted)),
            "export_resume: a PE is blocked or unstarted — not a quiescence point"
        );
        let (rng_state, budget) = match &inner.chooser {
            Chooser::Det => (0, 0),
            Chooser::Explore(rng) => (rng.state(), 0),
            Chooser::BoundedPreempt { rng, budget } => (rng.state(), *budget),
        };
        SchedResume {
            policy: self.policy,
            clocks: inner.clock.clone(),
            fingerprint: inner.fingerprint,
            switches: inner.switches,
            current,
            rng_state,
            budget,
        }
    }

    /// Preseed a fresh scheduler from captured state, before any PE
    /// registers. The first hand_off (triggered by the last registrant)
    /// grants the floor directly to `r.current` with no pick, exactly
    /// replaying the snap-gate release the accumulators already include.
    ///
    /// # Panics
    /// Panics if any PE has registered, the PE counts differ, or the
    /// policy differs from the snapshot's (use
    /// [`Self::preseed_clocks`] to restore under a new policy).
    pub fn preseed_resume(&self, r: &SchedResume) {
        assert_eq!(r.policy, self.policy, "preseed_resume across policies");
        let mut inner = self.inner.lock();
        assert_eq!(inner.registered, 0, "preseed after registration");
        assert_eq!(r.clocks.len(), self.npes, "preseed PE count mismatch");
        inner.clock.copy_from_slice(&r.clocks);
        inner.fingerprint = r.fingerprint;
        inner.switches = r.switches;
        inner.resume_grant = Some(r.current);
        match &mut inner.chooser {
            Chooser::Det => {}
            Chooser::Explore(rng) => *rng = SmallRng::from_state(r.rng_state),
            Chooser::BoundedPreempt { rng, budget } => {
                *rng = SmallRng::from_state(r.rng_state);
                *budget = r.budget;
            }
        }
    }

    /// Clocks-only preseed for restoring a snapshot under a *different*
    /// policy: virtual time carries over, but the pick sequence (and so
    /// the fingerprint, switch count and any chooser RNG stream) starts
    /// fresh — the first registration pick is a normal chooser pick.
    pub fn preseed_clocks(&self, clocks: &[SimTime]) {
        let mut inner = self.inner.lock();
        assert_eq!(inner.registered, 0, "preseed after registration");
        assert_eq!(clocks.len(), self.npes, "preseed PE count mismatch");
        inner.clock.copy_from_slice(clocks);
    }

    /// Hand the floor to the next runnable PE and queue it for
    /// [`Self::drive`] to resume. The caller must already have moved `pe`
    /// out of `Running`. Returns true if the floor went to a different PE
    /// (the caller must then [`Self::wait_for_floor`] unless it is done).
    fn hand_off(&self, inner: &mut Inner, pe: usize) -> bool {
        // A pending resume grant replays the pick the snapshot already
        // accounted (its fingerprint/switch effects are in the preseeded
        // accumulators), so it bypasses the chooser entirely — including
        // any RNG draw a seeded policy would spend.
        let granted = inner.resume_grant.take();
        let picked = match granted {
            Some(w) => {
                debug_assert_eq!(
                    inner.status[w],
                    Status::Runnable,
                    "resume grant to a PE that is not runnable"
                );
                Some(w)
            }
            None => inner.pick(),
        };
        match picked {
            Some(next) => {
                // Count switches against the previous floor holder, not
                // the caller: during `register` no one holds the floor
                // yet, so the initial grant must never count.
                let prev = inner.current;
                inner.heap.remove(next);
                inner.status[next] = Status::Running;
                inner.current = Some(next);
                if granted.is_none() {
                    inner.fingerprint =
                        (inner.fingerprint ^ next as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    if prev.is_some() && prev != Some(next) {
                        inner.switches += 1;
                    }
                }
                if next == pe {
                    false
                } else {
                    debug_assert!(
                        inner.next_resume.is_none(),
                        "two floor grants pending at once"
                    );
                    inner.next_resume = Some(next);
                    true
                }
            }
            None => {
                inner.current = None;
                if inner.done < self.npes {
                    // Nothing runnable but PEs remain: the team deadlocked
                    // (mismatched barriers, lock cycle, missing send).
                    let diag: Vec<String> = inner
                        .status
                        .iter()
                        .enumerate()
                        .map(|(p, s)| format!("PE {p}: {s:?} @ {} ns", inner.clock[p]))
                        .collect();
                    inner.poisoned = true;
                    // A PE parked on a dead interconnect link means the
                    // fault plan partitioned the machine — that is the
                    // injected fault working as specified, not mismatched
                    // barriers or a lock cycle. Say so.
                    let partitioned = inner
                        .status
                        .contains(&Status::Blocked(BlockReason::DeadLink));
                    if partitioned {
                        panic!(
                            "network partition: PE(s) blocked on a dead interconnect link, \
                             not a logic deadlock ({} of {} done)\n  {}",
                            inner.done,
                            self.npes,
                            diag.join("\n  ")
                        );
                    }
                    panic!(
                        "cooperative scheduler deadlock: no runnable PE ({} of {} done)\n  {}",
                        inner.done,
                        self.npes,
                        diag.join("\n  ")
                    );
                }
                true
            }
        }
    }

    /// Wait until `pe` holds the floor (or panic if poisoned): suspend
    /// this PE's coroutine until [`Self::drive`] resumes it after a
    /// hand_off granted it the floor (or poison makes the re-check unwind
    /// it). Never suspends holding the scheduler lock — the driver and
    /// the granted PE need it.
    fn wait_for_floor<'a>(&'a self, mut inner: parking_lot::MutexGuard<'a, Inner>, pe: usize) {
        loop {
            if inner.poisoned {
                drop(inner);
                panic!("{POISON_MSG}");
            }
            if inner.status[pe] == Status::Running {
                return;
            }
            drop(inner);
            coro::yield_current();
            inner = self.inner.lock();
        }
    }

    /// Called once per PE as its coroutine starts. Suspends until all PEs
    /// have registered and this PE is picked to run.
    fn register(&self, pe: usize) {
        let mut inner = self.inner.lock();
        assert_eq!(
            inner.status[pe],
            Status::Unstarted,
            "PE {pe} registered twice"
        );
        inner.make_runnable(pe);
        inner.registered += 1;
        if inner.registered == self.npes && !self.hand_off(&mut inner, pe) {
            return;
        }
        self.wait_for_floor(inner, pe);
    }

    /// Yield point: refresh `pe`'s clock and offer the floor. Returns
    /// true if another PE ran in between (a real handoff).
    pub fn yield_now(&self, pe: usize, clock: SimTime) -> bool {
        let mut inner = self.inner.lock();
        inner.clock[pe] = clock;
        inner.make_runnable(pe);
        if self.hand_off(&mut inner, pe) {
            self.wait_for_floor(inner, pe);
            true
        } else {
            false
        }
    }

    /// Give up the floor until [`Self::unblock`] is called with the same
    /// `reason` class (`Lock` or `Mailbox`). Spurious wakeups are
    /// possible; callers re-check their condition in a loop.
    pub fn block(&self, pe: usize, clock: SimTime, reason: BlockReason) {
        let mut inner = self.inner.lock();
        inner.clock[pe] = clock;
        inner.status[pe] = Status::Blocked(reason);
        self.hand_off(&mut inner, pe);
        self.wait_for_floor(inner, pe);
    }

    /// Make `pe` runnable again if it is blocked for `reason`. `hint` is
    /// the virtual time of the enabling event (message arrival, lock
    /// release): the sleeper's advisory clock is raised to it so the
    /// deterministic chooser orders the wakeup faithfully. Called by the
    /// floor holder; does not yield.
    pub fn unblock(&self, pe: usize, hint: SimTime, reason: BlockReason) {
        let mut inner = self.inner.lock();
        if inner.status[pe] == Status::Blocked(reason) {
            inner.clock[pe] = inner.clock[pe].max(hint);
            inner.make_runnable(pe);
        }
    }

    /// Rendezvous on gate `gate` (0 = team-wide, 1+n = node n): block
    /// until every member has arrived; the last arriver releases all and
    /// re-enters the normal pick order.
    pub fn gate_wait(&self, gate: usize, pe: usize, clock: SimTime) {
        let mut inner = self.inner.lock();
        inner.clock[pe] = clock;
        inner.gates[gate].arrived += 1;
        if inner.gates[gate].arrived == inner.gates[gate].members {
            inner.gates[gate].arrived = 0;
            for q in 0..self.npes {
                if inner.status[q] == Status::Blocked(BlockReason::Gate(gate)) {
                    inner.make_runnable(q);
                }
            }
            inner.make_runnable(pe);
        } else {
            inner.status[pe] = Status::Blocked(BlockReason::Gate(gate));
        }
        if self.hand_off(&mut inner, pe) {
            self.wait_for_floor(inner, pe);
        }
    }

    /// Called when `pe`'s program function returns. Hands the floor on
    /// without waiting.
    fn finish(&self, pe: usize, clock: SimTime) {
        let mut inner = self.inner.lock();
        inner.clock[pe] = clock;
        inner.status[pe] = Status::Done;
        inner.done += 1;
        if inner.done < self.npes {
            self.hand_off(&mut inner, pe);
        } else {
            inner.current = None;
        }
    }

    /// Called from a panicking PE's unwind path: once the driver sees
    /// the flag it resumes every blocked peer, which raises
    /// [`POISON_MSG`] instead of hanging the team.
    fn poison(&self, pe: usize) {
        let mut inner = self.inner.lock();
        if inner.status[pe] != Status::Done {
            // Force-finished PEs may have no heap entry; `remove`
            // tolerates that.
            inner.heap.remove(pe);
            inner.status[pe] = Status::Done;
            inner.done += 1;
        }
        inner.poisoned = true;
    }

    // -- The event core -----------------------------------------------------

    /// Run the team on the calling thread. PE `pe` executes `bodies[pe]`
    /// as a coroutine, and this loop *is* the machine: resume each PE once
    /// so it registers (it suspends until granted the floor), then keep
    /// resuming whichever PE the last hand_off granted. Each body returns
    /// the PE's final virtual clock.
    ///
    /// A panicking or deadlocking PE poisons the scheduler; the loop then
    /// resumes every surviving coroutine so its `wait_for_floor` re-check
    /// raises [`POISON_MSG`] and all stack frames drop cleanly. The error
    /// is the payload to propagate: the PE that actually hit the bug,
    /// preferred over the secondary [`POISON_MSG`] panics of its peers.
    ///
    /// # Panics
    /// Panics unless there is exactly one body per PE.
    pub fn drive<'a, F>(
        &self,
        bodies: impl IntoIterator<Item = F>,
    ) -> Result<(), Box<dyn Any + Send>>
    where
        F: FnOnce() -> SimTime + 'a,
    {
        let stack = coro::stack_bytes();
        let mut coros: Vec<coro::Coro<'_>> = bodies
            .into_iter()
            .enumerate()
            .map(|(pe, body)| coro::Coro::new(stack, move || self.run_pe(pe, body)))
            .collect();
        assert_eq!(coros.len(), self.npes, "one body per PE");
        for c in &mut coros {
            if self.is_poisoned() {
                break;
            }
            c.resume();
        }
        while !self.is_poisoned() {
            let next = self.inner.lock().next_resume.take();
            match next {
                Some(p) => coros[p].resume(),
                None => break,
            };
        }
        if self.is_poisoned() {
            for c in &mut coros {
                if c.started() && !c.finished() {
                    c.resume();
                }
            }
        }
        let mut payloads: Vec<Box<dyn Any + Send>> =
            coros.iter_mut().filter_map(|c| c.take_panic()).collect();
        if payloads.is_empty() {
            return Ok(());
        }
        let primary = payloads.iter().position(|p| !is_poison(p)).unwrap_or(0);
        Err(payloads.swap_remove(primary))
    }

    /// One PE's coroutine: register, run the body, finish — poisoning the
    /// scheduler if the body unwinds so blocked peers unwind too.
    fn run_pe(&self, pe: usize, body: impl FnOnce() -> SimTime) {
        struct PoisonOnPanic<'s>(&'s CoopSched, usize);
        impl Drop for PoisonOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.poison(self.1);
                }
            }
        }
        let _guard = PoisonOnPanic(self, pe);
        self.register(pe);
        let clock = body();
        self.finish(pe, clock);
    }

    /// Whether a PE panicked or a deadlock was detected.
    fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }
}

/// Whether a panic payload is the secondary [`POISON_MSG`] a PE unwinds
/// with because a peer failed.
fn is_poison(payload: &Box<dyn Any + Send>) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.contains(POISON_MSG))
        || payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains(POISON_MSG))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[test]
    fn policy_parse_roundtrip() {
        for p in [
            SchedPolicy::Os,
            SchedPolicy::Det,
            SchedPolicy::Explore { seed: 42 },
            SchedPolicy::BoundedPreempt {
                seed: 7,
                budget: 100,
            },
        ] {
            assert_eq!(SchedPolicy::parse(&p.to_string()), Ok(p));
        }
        assert!(SchedPolicy::parse("explore:").is_err());
        assert!(SchedPolicy::parse("bp:1").is_err());
        assert!(SchedPolicy::parse("fifo").is_err());
    }

    /// The indexed heap against a brute-force reference: random
    /// insert/update/remove streams must keep the peek equal to the
    /// linear-scan minimum and the back-pointers consistent.
    #[test]
    fn pe_heap_matches_linear_reference() {
        let npes = 37;
        let mut heap = PeHeap::new(npes);
        let mut reference: Vec<Option<SimTime>> = vec![None; npes];
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for _ in 0..20_000 {
            let pe = (rng.next_u64() % npes as u64) as usize;
            match rng.next_u64() % 3 {
                0 | 1 => {
                    let clock = rng.next_u64() % 1000;
                    heap.insert_or_update(pe, clock);
                    reference[pe] = Some(clock);
                }
                _ => {
                    let removed = heap.remove(pe);
                    assert_eq!(removed, reference[pe].is_some());
                    reference[pe] = None;
                }
            }
            let want = reference
                .iter()
                .enumerate()
                .filter_map(|(p, c)| c.map(|c| (c, p)))
                .min();
            assert_eq!(heap.peek(), want);
            assert_eq!(heap.len(), reference.iter().flatten().count());
            for (p, c) in reference.iter().enumerate() {
                assert_eq!(heap.contains(p), c.is_some());
            }
        }
    }

    /// Drive `sched` with the same body on every PE.
    fn drive(
        sched: &CoopSched,
        body: impl Fn(usize) -> SimTime,
    ) -> Result<(), Box<dyn Any + Send>> {
        let body = &body;
        sched.drive((0..sched.npes).map(|pe| move || body(pe)))
    }

    fn message(payload: Box<dyn Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Each PE appends its id to a shared log at every step, with per-step
    /// virtual clocks chosen so Det has a unique correct order.
    fn run_logged(policy: SchedPolicy, npes: usize, steps: usize) -> (Vec<usize>, SchedStats) {
        let sched = CoopSched::new(npes, policy, vec![npes]);
        let log = RefCell::new(Vec::new());
        drive(&sched, |pe| {
            let mut clock = 0u64;
            for step in 0..steps {
                log.borrow_mut().push(pe);
                // Distinct increments ⇒ a unique min-clock order.
                clock += 10 + (pe as u64) + (step as u64 % 3);
                sched.yield_now(pe, clock);
            }
            clock
        })
        .expect("no PE panics");
        (log.into_inner(), sched.stats())
    }

    #[test]
    fn det_schedule_is_reproducible_and_virtual_time_ordered() {
        let (a, sa) = run_logged(SchedPolicy::Det, 4, 20);
        let (b, sb) = run_logged(SchedPolicy::Det, 4, 20);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // First picks happen at clock 0 for everyone: PE order by id.
        assert_eq!(&a[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn explore_seeds_differ_but_each_is_reproducible() {
        let (a1, s1) = run_logged(SchedPolicy::Explore { seed: 1 }, 3, 30);
        let (a2, _) = run_logged(SchedPolicy::Explore { seed: 1 }, 3, 30);
        let (b, s2) = run_logged(SchedPolicy::Explore { seed: 2 }, 3, 30);
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        assert_ne!(s1.fingerprint, s2.fingerprint, "different seeds explore");
        assert_ne!(a1, b);
    }

    #[test]
    fn bounded_preempt_with_zero_budget_is_det() {
        let (a, _) = run_logged(SchedPolicy::Det, 4, 25);
        let (b, _) = run_logged(SchedPolicy::BoundedPreempt { seed: 9, budget: 0 }, 4, 25);
        assert_eq!(a, b);
    }

    #[test]
    fn scales_to_1024_pes() {
        // A P=1024 team on one OS thread. Two steps each keeps it a smoke
        // test, not a benchmark.
        let (log, stats) = run_logged(SchedPolicy::Det, 1024, 2);
        assert_eq!(log.len(), 1024 * 2);
        // First sweep is clock-0 ties broken by PE id.
        assert!(log[..1024].iter().copied().eq(0..1024));
        assert!(stats.switches > 0);
    }

    #[test]
    fn floor_is_exclusive() {
        // Each PE does read-modify-write with a yield in the middle. Only
        // the floor holder runs between yield points, so no other PE may
        // be inside the fences and the Det schedule gives a deterministic
        // result.
        let npes = 4;
        let sched = CoopSched::new(npes, SchedPolicy::Det, vec![npes]);
        let cell = Cell::new(0u64);
        let in_crit = Cell::new(0u64);
        drive(&sched, |pe| {
            for i in 0..50u64 {
                assert_eq!(in_crit.replace(1), 0);
                cell.set(cell.get() + 1);
                assert_eq!(in_crit.replace(0), 1);
                sched.yield_now(pe, (pe as u64 + 1) * 7 + i * 13);
            }
            u64::MAX
        })
        .expect("no PE panics");
        assert_eq!(cell.get(), 200);
    }

    #[test]
    fn gates_release_only_when_all_arrive() {
        let npes = 3;
        let sched = CoopSched::new(npes, SchedPolicy::Det, vec![npes]);
        let phase = Cell::new(0u64);
        drive(&sched, |pe| {
            for round in 1..=5u64 {
                phase.set(phase.get() + 1);
                sched.gate_wait(0, pe, round * 100 + pe as u64);
                // Everyone must have bumped the phase before any PE
                // proceeds past the gate.
                assert_eq!(phase.get(), round * npes as u64);
                sched.gate_wait(0, pe, round * 100 + 50 + pe as u64);
            }
            u64::MAX
        })
        .expect("no PE panics");
    }

    #[test]
    fn block_unblock_wrong_reason_is_ignored() {
        let sched = CoopSched::new(2, SchedPolicy::Det, vec![2]);
        let order = RefCell::new(Vec::new());
        drive(&sched, |pe| {
            if pe == 0 {
                order.borrow_mut().push("pe0-blocking");
                sched.block(0, 0, BlockReason::Mailbox);
                order.borrow_mut().push("pe0-woke");
            } else {
                // Wrong class: must not wake PE 0.
                sched.unblock(0, 5, BlockReason::Lock);
                sched.yield_now(1, 1);
                order.borrow_mut().push("pe1-sent");
                sched.unblock(0, 5, BlockReason::Mailbox);
                sched.yield_now(1, 2);
            }
            10
        })
        .expect("no PE panics");
        let order = order.into_inner();
        let woke = order.iter().position(|s| *s == "pe0-woke").unwrap();
        let sent = order.iter().position(|s| *s == "pe1-sent").unwrap();
        assert!(sent < woke, "PE 0 woke before the real unblock: {order:?}");
    }

    /// Block both PEs for good, one for `reason0` and one on a mailbox;
    /// returns the diagnostic the team unwinds with.
    fn stuck_team(reason0: BlockReason) -> String {
        let sched = CoopSched::new(2, SchedPolicy::Det, vec![2]);
        let err = drive(&sched, |pe| {
            let reason = if pe == 0 {
                reason0
            } else {
                BlockReason::Mailbox
            };
            sched.block(pe, 0, reason); // nobody will unblock us
            0
        })
        .expect_err("a stuck team must unwind, not hang");
        // Both coroutines unwound: the driver dropped them without a leak.
        message(err)
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let diag = stuck_team(BlockReason::Lock);
        assert!(diag.contains("cooperative scheduler deadlock"), "{diag}");
        assert_ne!(diag, POISON_MSG, "the diagnostic wins over the poison");
    }

    #[test]
    fn dead_link_blocks_classify_as_partition() {
        // As Ctx does when try_route returns Unreachable.
        let diag = stuck_team(BlockReason::DeadLink);
        assert!(diag.contains("network partition"), "{diag}");
        assert!(!diag.contains("cooperative scheduler deadlock"), "{diag}");
        assert!(diag.contains("DeadLink"), "{diag}");
    }

    #[test]
    fn poison_unwinds_blocked_peers_and_keeps_the_original_panic() {
        let sched = CoopSched::new(3, SchedPolicy::Det, vec![3]);
        let err = drive(&sched, |pe| {
            if pe == 1 {
                panic!("pe 1 exploded");
            }
            sched.block(pe, 0, BlockReason::Mailbox);
            0
        })
        .expect_err("the panic must propagate");
        assert_eq!(message(err), "pe 1 exploded");
    }

    #[test]
    fn preseed_resume_replays_the_tail_of_a_straight_run() {
        // A two-phase workload with a mid-run gate: the straight run
        // exports resumable state right after the gate; a second team
        // preseeded from it must replay phase 2 pick-for-pick and land on
        // the same final fingerprint and switch count.
        for policy in [
            SchedPolicy::Det,
            SchedPolicy::Explore { seed: 3 },
            SchedPolicy::BoundedPreempt { seed: 5, budget: 4 },
        ] {
            let npes = 3;
            let steps = 10usize;
            let clock_at = |pe: usize, step: usize| (step as u64 + 1) * 10 + pe as u64 * 3;

            let sched = CoopSched::new(npes, policy, vec![npes]);
            let log = RefCell::new(Vec::new());
            let resume = RefCell::new(None);
            drive(&sched, |pe| {
                for step in 0..steps {
                    log.borrow_mut().push((1u8, pe));
                    sched.yield_now(pe, clock_at(pe, step));
                }
                sched.gate_wait(0, pe, clock_at(pe, steps));
                // First PE past the gate is the floor holder: the only
                // place export_resume is legal.
                if resume.borrow().is_none() {
                    *resume.borrow_mut() = Some(sched.export_resume());
                }
                for step in steps..2 * steps {
                    log.borrow_mut().push((2u8, pe));
                    sched.yield_now(pe, clock_at(pe, step + 1));
                }
                u64::MAX
            })
            .expect("no PE panics");
            let straight = sched.stats();
            let straight_tail: Vec<usize> = log
                .into_inner()
                .into_iter()
                .filter(|(phase, _)| *phase == 2)
                .map(|(_, pe)| pe)
                .collect();
            let resume = resume.into_inner().expect("floor holder exported");
            assert_eq!(resume.clocks.len(), npes);

            let sched2 = CoopSched::new(npes, policy, vec![npes]);
            sched2.preseed_resume(&resume);
            let log2 = RefCell::new(Vec::new());
            drive(&sched2, |pe| {
                for step in steps..2 * steps {
                    log2.borrow_mut().push(pe);
                    sched2.yield_now(pe, clock_at(pe, step + 1));
                }
                u64::MAX
            })
            .expect("no PE panics");
            let resumed = sched2.stats();
            assert_eq!(
                log2.into_inner(),
                straight_tail,
                "{policy}: resumed tail diverged from the straight run"
            );
            assert_eq!(resumed.fingerprint, straight.fingerprint, "{policy}");
            assert_eq!(resumed.switches, straight.switches, "{policy}");
        }
    }

    #[test]
    fn default_policy_env_fallback_is_os_or_env() {
        // The CI matrix sets O2K_SCHED, so the expected value comes from
        // the same environment the fallback reads.
        let want = std::env::var("O2K_SCHED")
            .ok()
            .and_then(|s| SchedPolicy::parse(&s).ok())
            .unwrap_or(SchedPolicy::Os);
        assert_eq!(default_policy(), want);
    }
}
