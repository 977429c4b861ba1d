//! Shared configuration, the per-run mesh plan, and balance analysis for
//! the three AMR implementations.
//!
//! All three models run the *same* deterministic adaptation sequence (the
//! mesh metadata is replicated, as in many paper-era remeshing codes; the
//! host computes it once per run in [`AmrPlan`], and the surgery cost is
//! charged to every PE as parallel work). What differs — and what the
//! experiments measure — is how the solution field moves: explicit
//! messages, one-sided puts, or hardware coherence.

use mesh::adaptive::AdaptiveMesh;
use mesh::dual::{dual_graph, DualGraph};
use mesh::indicator::{mark, Marking, Shock};
use partition::{imbalance, rcb_partition, remap_labels, MoveStats, WeightedPoint};

/// AMR run parameters.
#[derive(Debug, Clone)]
pub struct AmrConfig {
    /// Base mesh cells in x.
    pub nx: usize,
    /// Base mesh cells in y.
    pub ny: usize,
    /// Adaptation steps (the shock crosses the unit domain over all steps).
    pub steps: usize,
    /// Jacobi sweeps between adaptations.
    pub sweeps: usize,
    /// Refinement band half-width around the front.
    pub refine_band: f64,
    /// Coarsening distance from the front.
    pub coarsen_band: f64,
    /// Maximum refinement level.
    pub max_level: u8,
    /// Apply PLUM remapping after each repartition (ablation A2).
    pub use_remap: bool,
    /// Drive adaptation with an expanding circular front instead of the
    /// default planar shock.
    pub circular: bool,
    /// CC-SAS only: claim sweep work dynamically in chunks from a shared
    /// counter (self-scheduling) instead of static blocks (ablation A6).
    pub sas_self_schedule: bool,
    /// Workload seed (kept for interface uniformity).
    pub seed: u64,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            nx: 24,
            ny: 24,
            steps: 4,
            sweeps: 4,
            refine_band: 0.08,
            coarsen_band: 0.22,
            max_level: 2,
            use_remap: true,
            circular: false,
            sas_self_schedule: false,
            seed: 42,
        }
    }
}

impl AmrConfig {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        AmrConfig {
            nx: 10,
            ny: 10,
            steps: 3,
            sweeps: 2,
            ..Self::default()
        }
    }

    /// The moving front: by default a planar shock crossing the unit domain
    /// over the configured number of steps; with [`AmrConfig::circular`], an
    /// expanding circular front centred on the domain.
    pub fn shock(&self) -> Shock {
        if self.circular {
            Shock::Circular {
                cx: 0.5,
                cy: 0.5,
                r0: 0.05,
                speed: 0.6,
            }
        } else {
            Shock::Planar {
                x0: 0.0,
                speed: 1.0,
            }
        }
    }

    /// Front time at adaptation step `step`.
    pub fn front_time(&self, step: usize) -> f64 {
        (step as f64 + 1.0) / self.steps as f64
    }

    /// Capacity of triangle-id-indexed shared/symmetric arrays.
    pub fn tri_capacity(&self) -> usize {
        2 * self.nx * self.ny * 64
    }
}

/// The replicated mesh metadata, as one sequential replica steps through
/// the adaptation sequence. [`AmrPlan::build`] runs it once per run; PEs
/// read the result through [`AmrState`].
#[derive(Debug, Clone)]
pub struct ReplicatedMesh {
    /// The adaptive mesh.
    pub mesh: AdaptiveMesh,
}

/// What one adaptation step did (for cost charging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Triangles examined by the indicator.
    pub marked_scan: usize,
    /// New triangles created (refine + conformity restoration).
    pub new_tris: usize,
    /// Sibling groups coarsened.
    pub coarsened_groups: usize,
}

impl ReplicatedMesh {
    /// Base mesh over the unit square.
    pub fn new(cfg: &AmrConfig) -> Self {
        ReplicatedMesh {
            mesh: AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0),
        }
    }

    /// One adaptation step: mark against the front, refine, coarsen.
    /// Deterministic.
    pub fn adapt(&mut self, cfg: &AmrConfig, step: usize) -> AdaptStats {
        let t = cfg.front_time(step);
        let marking: Marking = mark(
            &self.mesh,
            &cfg.shock(),
            t,
            cfg.refine_band,
            cfg.coarsen_band,
            cfg.max_level,
        );
        let scanned = self.mesh.num_active();
        let before = self.mesh.num_tris_total();
        self.mesh.refine(&marking.refine);
        let groups = self.mesh.coarsen(&marking.coarsen);
        AdaptStats {
            marked_scan: scanned,
            new_tris: self.mesh.num_tris_total() - before,
            coarsened_groups: groups,
        }
    }
}

/// One repartition of the active triangles, by active index.
#[derive(Debug, Clone)]
pub struct Repartition {
    /// Owners the active triangles inherit from the previous partition
    /// (all zero before the first one).
    pub inherited: Vec<u32>,
    /// The new owners.
    pub parts: Vec<u32>,
    /// Movement from `inherited` to `parts`.
    pub moves: MoveStats,
}

/// The mesh after some number of adaptation steps, as PEs read it.
#[derive(Debug, Clone)]
pub struct PlanLevel {
    /// What the step that produced this level did (zero for the base mesh).
    pub stats: AdaptStats,
    /// Triangles ever created so far (ids are never reused).
    pub num_tris: usize,
    /// Dual graph of the active triangles; `dual.tris` is the active list
    /// in ascending id order.
    pub dual: DualGraph,
    /// The repartition at this level, when the plan partitions.
    pub repart: Option<Repartition>,
}

/// The whole replicated AMR sequence of one run, computed once on the host
/// before the team starts and read by every PE.
///
/// Adaptation, the dual graph and the RCB + PLUM partition are pure
/// functions of the config, the step and the part count, so one host-side
/// computation serves every PE. Each PE keeps only what differs per PE
/// (its field in [`AmrState`], its owners in the app) and still pays the
/// full virtual-time charges for the replicated work.
#[derive(Debug)]
pub struct AmrPlan {
    /// Field on the base mesh: the centroid x of each base triangle.
    base_field: Vec<f64>,
    /// The mesh after the last step. Triangles are never deleted, so its
    /// parent links cover every triangle of every level.
    mesh: AdaptiveMesh,
    /// `levels[k]` is the mesh after `k` adaptation steps.
    levels: Vec<PlanLevel>,
}

impl AmrPlan {
    /// Run the adaptation sequence of `cfg` once. With `nparts`, also
    /// partition every level: RCB over the base mesh, then after each step
    /// RCB plus (with [`AmrConfig::use_remap`]) PLUM remapping against the
    /// owners the new triangles inherit from their parents.
    pub fn build(cfg: &AmrConfig, nparts: Option<usize>) -> AmrPlan {
        let mut rm = ReplicatedMesh::new(cfg);
        let base_field = (0..rm.mesh.num_tris_total() as u32)
            .map(|t| rm.mesh.centroid_of(t).x)
            .collect();
        let mut owner = vec![0u32; rm.mesh.num_tris_total()];
        let mut levels = Vec::with_capacity(cfg.steps + 1);
        for k in 0..=cfg.steps {
            let stats = if k == 0 {
                AdaptStats::default()
            } else {
                rm.adapt(cfg, k - 1)
            };
            let num_tris = rm.mesh.num_tris_total();
            let dual = dual_graph(&rm.mesh);
            let repart = nparts.map(|np| {
                for t in owner.len()..num_tris {
                    let parent = rm.mesh.parent_of(t as u32).expect("has parent");
                    owner.push(owner[parent as usize]);
                }
                let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
                let remap = cfg.use_remap && k > 0;
                let (parts, moves) = partition_active(&dual, &inherited, np, remap);
                for (i, &t) in dual.tris.iter().enumerate() {
                    owner[t as usize] = parts[i];
                }
                Repartition {
                    inherited,
                    parts,
                    moves,
                }
            });
            levels.push(PlanLevel {
                stats,
                num_tris,
                dual,
                repart,
            });
        }
        AmrPlan {
            base_field,
            mesh: rm.mesh,
            levels,
        }
    }

    /// The levels: `levels()[k]` is the mesh after `k` adaptation steps.
    pub fn levels(&self) -> &[PlanLevel] {
        &self.levels
    }

    /// Active triangles after the last step (the runs' problem size).
    pub fn final_active(&self) -> usize {
        self.levels.last().expect("the base level").dual.len()
    }
}

/// What one PE carries of the replicated AMR state: its solution field and
/// a cursor into the shared [`AmrPlan`].
#[derive(Debug)]
pub struct AmrState<'a> {
    plan: &'a AmrPlan,
    /// Adaptation steps taken: the cursor into the plan's levels.
    step: usize,
    /// Solution value per triangle id (authoritative only at the owner for
    /// MP/SHMEM; those models synchronise before adaptation).
    pub field: Vec<f64>,
}

impl<'a> AmrState<'a> {
    /// The base mesh with the initial field (centroid x).
    pub fn new(plan: &'a AmrPlan) -> Self {
        AmrState {
            plan,
            step: 0,
            field: plan.base_field.clone(),
        }
    }

    fn level(&self) -> &'a PlanLevel {
        &self.plan.levels[self.step]
    }

    /// Take the next adaptation step: extend the field (children inherit
    /// the parent value; reactivated parents keep their pre-refinement
    /// value) and return what the step did.
    pub fn adapt(&mut self) -> AdaptStats {
        self.step += 1;
        for t in self.field.len()..self.num_tris_total() {
            let parent = self.parent_of(t);
            self.field.push(self.field[parent as usize]);
        }
        self.level().stats
    }

    /// Triangles ever created so far.
    pub fn num_tris_total(&self) -> usize {
        self.level().num_tris
    }

    /// Active triangle ids in ascending order.
    pub fn active_tris(&self) -> &'a [u32] {
        &self.level().dual.tris
    }

    /// Dual graph of the active triangles.
    pub fn dual(&self) -> &'a DualGraph {
        &self.level().dual
    }

    /// Parent of triangle `t`, which must not be a base triangle.
    pub fn parent_of(&self, t: usize) -> u32 {
        self.plan.mesh.parent_of(t as u32).expect("has parent")
    }

    /// The partition at the current level, by active index. Asserts that
    /// the caller's `inherited` owners are the plan's: a PE whose ownership
    /// map drifted from the replicated sequence must not go on silently.
    ///
    /// # Panics
    /// If the plan was built without parts, or `inherited` differs.
    pub fn partition(&self, inherited: &[u32]) -> (&'a [u32], MoveStats) {
        let r = self
            .level()
            .repart
            .as_ref()
            .expect("the AMR plan was built without partitions");
        if inherited != r.inherited.as_slice() {
            match self.step {
                0 => panic!("AMR plan: inherited owners differ at the initial partition"),
                k => panic!("AMR plan: inherited owners differ at step {}", k - 1),
            }
        }
        (&r.parts, r.moves)
    }

    /// Checksum: sum of field over active triangles in ascending id order.
    pub fn checksum(&self) -> f64 {
        self.active_tris()
            .iter()
            .map(|&t| self.field[t as usize])
            .sum()
    }
}

/// Partition the active triangles: RCB over centroids (unit weights), then
/// optionally PLUM-remap against the inherited owners. Returns the parts
/// by *active index* and the movement statistics.
pub fn partition_active(
    dual: &DualGraph,
    inherited: &[u32],
    nparts: usize,
    use_remap: bool,
) -> (Vec<u32>, MoveStats) {
    let pts: Vec<WeightedPoint> = dual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let mut parts = rcb_partition(&pts, nparts);
    let w = vec![1.0; parts.len()];
    let stats = if use_remap {
        remap_labels(inherited, &mut parts, &w, nparts)
    } else {
        partition::remap::movement(inherited, &parts, &w, nparts)
    };
    (parts, stats)
}

/// Load imbalance / movement series for experiment F6, read off the plan
/// without running the parallel code. Returns, per step,
/// `(imbalance_before_partitioning, imbalance_after, total_v, max_v)`.
pub fn balance_series(cfg: &AmrConfig, nparts: usize) -> Vec<(f64, f64, f64, f64)> {
    let plan = AmrPlan::build(cfg, Some(nparts));
    plan.levels()[1..]
        .iter()
        .map(|level| {
            let r = level.repart.as_ref().expect("partitioned plan");
            let w = vec![1.0; r.parts.len()];
            let before = imbalance(&w, &r.inherited, nparts);
            let after = imbalance(&w, &r.parts, nparts);
            (before, after, r.moves.total_v, r.moves.max_v)
        })
        .collect()
}

/// Serialise one PE's replicated AMR locals at a step boundary — the
/// solution field and the ownership map. The mesh itself is *not* stored:
/// adaptation is a pure function of the config and the step count, so a
/// restore reads it back from the run's [`AmrPlan`].
pub(crate) fn encode_step_state(step: u64, field: &[f64], owner: &[u32]) -> Vec<u8> {
    let mut w = o2k_snap::wire::WireWriter::new();
    w.u64(step);
    w.f64s(field);
    let owner64: Vec<u64> = owner.iter().map(|&o| u64::from(o)).collect();
    w.u64s(&owner64);
    w.into_bytes()
}

/// Inverse of [`encode_step_state`].
pub(crate) fn decode_step_state(bytes: &[u8], step: u64) -> (Vec<f64>, Vec<u32>) {
    let mut r = o2k_snap::wire::WireReader::new(bytes);
    let got = r.u64().expect("snapshot app payload: step");
    assert_eq!(got, step, "snapshot payload is for a different step");
    let field = r.f64s().expect("snapshot app payload: field");
    let owner: Vec<u32> = r
        .u64s()
        .expect("snapshot app payload: owner")
        .into_iter()
        .map(|v| v as u32)
        .collect();
    r.finish().expect("snapshot app payload: trailing bytes");
    (field, owner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One level of the sequential reference: active ids, what the step
    /// did, the triangle count, the dual CSR arrays, and the repartition
    /// `(inherited, parts, moves)` when partitioning.
    type RefLevel = (
        Vec<u32>,
        AdaptStats,
        usize,
        Vec<usize>,
        Vec<u32>,
        Option<(Vec<u32>, Vec<u32>, MoveStats)>,
    );

    /// The adaptation sequence replayed the way every PE used to: straight
    /// on `AdaptiveMesh::refine`/`coarsen`, `dual_graph` and
    /// `partition_active`, with the ownership map inherited by hand. Also
    /// returns the final field a PE would carry (children inherit).
    fn reference(cfg: &AmrConfig, nparts: Option<usize>) -> (Vec<RefLevel>, Vec<f64>) {
        let mut mesh = AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0);
        let mut field: Vec<f64> = (0..mesh.num_tris_total() as u32)
            .map(|t| mesh.centroid_of(t).x)
            .collect();
        let mut owner = vec![0u32; mesh.num_tris_total()];
        let mut levels = Vec::new();
        for k in 0..=cfg.steps {
            let mut stats = AdaptStats::default();
            if k > 0 {
                let m = mark(
                    &mesh,
                    &cfg.shock(),
                    cfg.front_time(k - 1),
                    cfg.refine_band,
                    cfg.coarsen_band,
                    cfg.max_level,
                );
                let before = mesh.num_tris_total();
                stats.marked_scan = mesh.num_active();
                mesh.refine(&m.refine);
                stats.coarsened_groups = mesh.coarsen(&m.coarsen);
                stats.new_tris = mesh.num_tris_total() - before;
                for t in before..mesh.num_tris_total() {
                    let parent = mesh.parent_of(t as u32).unwrap() as usize;
                    field.push(field[parent]);
                    owner.push(owner[parent]);
                }
            }
            let dual = dual_graph(&mesh);
            assert_eq!(dual.tris, mesh.active_tris());
            let repart = nparts.map(|np| {
                let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
                let (parts, moves) =
                    partition_active(&dual, &inherited, np, cfg.use_remap && k > 0);
                for (i, &t) in dual.tris.iter().enumerate() {
                    owner[t as usize] = parts[i];
                }
                (inherited, parts, moves)
            });
            levels.push((
                mesh.active_tris(),
                stats,
                mesh.num_tris_total(),
                dual.xadj,
                dual.adj,
                repart,
            ));
        }
        (levels, field)
    }

    fn configs() -> Vec<AmrConfig> {
        let mut out = Vec::new();
        for base in [AmrConfig::small(), AmrConfig::default()] {
            for circular in [false, true] {
                for use_remap in [true, false] {
                    out.push(AmrConfig {
                        circular,
                        use_remap,
                        ..base.clone()
                    });
                }
            }
        }
        out
    }

    #[test]
    fn plan_matches_the_sequential_reference() {
        for cfg in configs() {
            for nparts in [None, Some(1), Some(4), Some(32)] {
                let plan = AmrPlan::build(&cfg, nparts);
                let (want, field) = reference(&cfg, nparts);
                assert_eq!(plan.levels().len(), want.len());
                let mut state = AmrState::new(&plan);
                for (k, (active, stats, num_tris, xadj, adj, repart)) in want.iter().enumerate() {
                    let ctx = format!("{cfg:?} nparts={nparts:?} level {k}");
                    if k > 0 {
                        assert_eq!(state.adapt(), *stats, "{ctx}");
                    }
                    assert_eq!(state.active_tris(), active.as_slice(), "{ctx}");
                    assert_eq!(state.num_tris_total(), *num_tris, "{ctx}");
                    assert_eq!(&state.dual().xadj, xadj, "{ctx}");
                    assert_eq!(&state.dual().adj, adj, "{ctx}");
                    let level = &plan.levels()[k];
                    match (repart, &level.repart) {
                        (None, None) => {}
                        (Some((inherited, parts, moves)), Some(got)) => {
                            assert_eq!(&got.inherited, inherited, "{ctx}");
                            let (p, m) = state.partition(inherited);
                            assert_eq!(p, parts.as_slice(), "{ctx}");
                            assert_eq!(m, *moves, "{ctx}");
                        }
                        _ => panic!("{ctx}: partitioned on one side only"),
                    }
                }
                assert_eq!(state.field, field, "{cfg:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inherited owners differ at step 1")]
    fn mismatched_inherited_owners_panic_naming_the_step() {
        let cfg = AmrConfig::small();
        let plan = AmrPlan::build(&cfg, Some(4));
        let mut state = AmrState::new(&plan);
        state.adapt();
        state.adapt();
        let mut inherited = plan.levels()[2].repart.as_ref().unwrap().inherited.clone();
        inherited[0] = (inherited[0] + 1) % 4;
        state.partition(&inherited);
    }

    #[test]
    #[should_panic(expected = "without partitions")]
    fn unpartitioned_plan_refuses_partition_lookups() {
        let plan = AmrPlan::build(&AmrConfig::small(), None);
        AmrState::new(&plan).partition(&[]);
    }

    #[test]
    fn adaptation_grows_near_front() {
        let cfg = AmrConfig::default();
        let mut rm = ReplicatedMesh::new(&cfg);
        let base = rm.mesh.num_active();
        let stats = rm.adapt(&cfg, 0);
        assert!(stats.new_tris > 0);
        assert!(rm.mesh.num_active() > base);
        rm.mesh.validate().expect("valid after adapt");
    }

    #[test]
    fn field_extension_covers_all_tris() {
        let cfg = AmrConfig::small();
        let plan = AmrPlan::build(&cfg, None);
        let mut s = AmrState::new(&plan);
        for _ in 0..cfg.steps {
            s.adapt();
            assert_eq!(s.field.len(), s.num_tris_total());
        }
    }

    #[test]
    fn remap_reduces_movement() {
        let cfg = AmrConfig {
            use_remap: true,
            ..AmrConfig::default()
        };
        let cfg_no = AmrConfig {
            use_remap: false,
            ..AmrConfig::default()
        };
        let with: f64 = balance_series(&cfg, 8).iter().map(|r| r.2).sum();
        let without: f64 = balance_series(&cfg_no, 8).iter().map(|r| r.2).sum();
        assert!(
            with <= without,
            "PLUM remap must not increase movement: {with} vs {without}"
        );
        assert!(with < 0.95 * without, "remap should help substantially");
    }

    #[test]
    fn partitioning_restores_balance() {
        let cfg = AmrConfig::default();
        for (before, after, _, _) in balance_series(&cfg, 8) {
            assert!(after <= before + 1e-9);
            assert!(after < 1.5, "post-partition imbalance too high: {after}");
        }
    }
}
