//! AMR under the hybrid model: message passing *between* nodes, shared
//! address space *within* them.
//!
//! The extension the paper family's follow-ups studied ("Message Passing
//! vs. Shared Address Space on a Cluster of SMPs"): ownership is
//! decomposed to the granularity of dual-CPU *nodes*; PEs on a node share
//! their triangles through the coherence protocol and synchronise with
//! cheap node-local barriers, while designated node **leaders** exchange
//! boundary values across nodes with explicit messages. The payoff is
//! structural: the global barriers and per-PE ghost exchanges of the pure
//! MP version collapse into one message per node pair per sweep plus
//! node-local barriers.
//!
//! Data layout is the crux (as the follow-up papers found): a single
//! id-indexed shared array false-shares cache lines across node
//! boundaries, which is fatal when cross-node coherence is expensive. The
//! hybrid therefore keeps a **per-node copy** of the field — each node's
//! PEs touch only their own copy (node-local coherence), remote values
//! arrive only as leader messages (ghosts each sweep, migrated triangle
//! state after each repartition). Experiment A5 and
//! `examples/hybrid_cluster.rs` show where this pays: machines without
//! cheap hardware coherence.

use std::sync::Arc;

use machine::Machine;
use mp::{MpWorld, RecvSpec};
use parallel::{Ctx, SchedPolicy, Team};
use sas::{SasSlice, SasWorld};

use crate::amr_common::{AmrConfig, AmrPlan, AmrState};
use crate::metrics::{App, Model, RunMetrics};
use crate::workcost as W;

/// Tag for inter-leader ghost messages.
const TAG_GHOST: u32 = 11;
/// Tag for inter-leader migration messages.
const TAG_MIGRATE: u32 = 12;

/// Run the hybrid AMR application; returns uniform metrics.
pub fn run(machine: Arc<Machine>, cfg: &AmrConfig) -> RunMetrics {
    run_sched(machine, cfg, None)
}

/// [`run`] with an explicit scheduling policy. `None` keeps the process
/// default ([`parallel::sched::default_policy`]).
pub fn run_sched(machine: Arc<Machine>, cfg: &AmrConfig, sched: Option<SchedPolicy>) -> RunMetrics {
    run_opts(machine, cfg, crate::RunOpts::with_sched(sched))
}

/// [`run`] with full execution options (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &AmrConfig, opts: crate::RunOpts) -> RunMetrics {
    let mp = MpWorld::new(Arc::clone(&machine));
    let sas = SasWorld::new(Arc::clone(&machine));
    let plan = AmrPlan::build(cfg, Some(machine.topology.nodes()), None);
    let team = opts.configure(Team::new(Arc::clone(&machine)).seed(cfg.seed));
    let run = team.run(|ctx| pe_main(ctx, &mp, &sas, cfg, &plan));
    RunMetrics::collect(App::Amr, Model::Hybrid, &run, plan.final_active())
}

fn pe_main(ctx: &mut Ctx, mp: &MpWorld, sas: &SasWorld, cfg: &AmrConfig, plan: &AmrPlan) -> f64 {
    let topo = ctx.machine().topology.clone();
    let nnodes = topo.nodes();
    let my_node = topo.node_of(ctx.pe());
    let my_node_pes: Vec<usize> = topo.pes_on_node(my_node).collect();
    let leader = my_node_pes[0];
    let is_leader = ctx.pe() == leader;
    let cap = cfg.tri_capacity();
    let mut pe = sas.pe();
    let mut state = AmrState::new(plan);

    // Per-node field copies, id-indexed within each copy: node n's value
    // for triangle t lives at n*cap + t. Only node n's PEs ever touch that
    // segment, so all field coherence stays node-local — no false sharing
    // across the expensive inter-node boundary.
    let vals: SasSlice<f64> = sas.alloc(ctx, nnodes * cap);
    let my_base = my_node * cap;
    // Per-node ghost tables: remote boundary values published by the
    // node's leader each sweep.
    let ghost_cap = 16 * 1024;
    let ghosts: SasSlice<f64> = sas.alloc(ctx, nnodes * ghost_cap);
    if ctx.pe() == 0 {
        // Every copy starts from the same base-mesh field (init is
        // sequential and uncosted, as in the other models).
        for n in 0..nnodes {
            for (t, v) in state.field.iter().enumerate() {
                vals.write_raw(n * cap + t, *v);
            }
        }
    }
    ctx.barrier();

    // Node-level ownership by triangle id, replicated.
    let mut owner = vec![0u32; state.num_tris_total()];
    {
        let dual = state.dual();
        ctx.compute_units(
            (dual.len() / ctx.npes() + 1) as u64,
            W::PARTITION_PER_TRI_NS,
        );
        let (parts, _) = state.partition(&vec![0; dual.len()]);
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
    }

    for _ in 0..cfg.steps {
        // (1) Remesh — shared memory keeps the field consistent, so no
        // gather/broadcast phase exists in the hybrid (as in pure SAS).
        ctx.net_phase("adapt");
        let before = state.num_tris_total();
        let stats = state.adapt();
        assert!(state.num_tris_total() <= cap, "triangle capacity exceeded");
        ctx.compute_units(
            (stats.marked_scan / ctx.npes() + 1) as u64,
            W::MARK_PER_TRI_NS,
        );
        ctx.compute_units(
            (stats.new_tris / ctx.npes() + 1) as u64,
            W::ADAPT_PER_TRI_NS,
        );
        for t in owner.len()..state.num_tris_total() {
            let parent = state.parent_of(t);
            let o = owner[parent as usize];
            owner.push(o);
        }
        // New triangles inherit parent values. Hybrid discipline: only the
        // owning node's PEs touch a triangle's entry, so first-touch homing
        // and invalidation traffic stay node-local.
        let after = state.num_tris_total();
        let (p, me) = (ctx.npes(), ctx.pe());
        let rank_in_node = my_node_pes.iter().position(|&q| q == me).expect("member");
        let k = my_node_pes.len();
        let my_new: Vec<usize> = (before..after)
            .filter(|&t| owner[t] as usize == my_node)
            .collect();
        let lo = my_new.len() * rank_in_node / k;
        let hi = my_new.len() * (rank_in_node + 1) / k;
        for &t in &my_new[lo..hi] {
            // Child and parent share an owner by construction, so the
            // parent's value is in this node's copy.
            let parent = state.parent_of(t);
            let v = pe.read(ctx, &vals, my_base + parent as usize);
            pe.write(ctx, &vals, my_base + t, v);
        }
        ctx.barrier();

        // (2) Node-level repartition + remap.
        ctx.net_phase("remap");
        let dual = state.dual();
        ctx.compute_units((dual.len() / p + 1) as u64, W::PARTITION_PER_TRI_NS);
        let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
        let (parts, _) = state.partition(&inherited);
        // Explicit migration: leaders ship the state of triangles that
        // changed node, old owner's copy → new owner's copy.
        let mut migr_out: Vec<Vec<(u64, f64)>> = vec![Vec::new(); nnodes];
        let mut migr_in: Vec<usize> = vec![0; nnodes];
        for (i, (&o, &n)) in inherited.iter().zip(parts).enumerate() {
            let (o, n) = (o as usize, n as usize);
            if o != n {
                if o == my_node && is_leader {
                    let id = dual.tris[i] as usize;
                    migr_out[n].push((id as u64, pe.read(ctx, &vals, my_base + id)));
                }
                if n == my_node {
                    migr_in[o] += 1;
                }
            }
        }
        let moved: usize = migr_out.iter().map(Vec::len).sum();
        ctx.compute_units(
            (moved / my_node_pes.len() + 1) as u64,
            W::MIGRATE_PER_TRI_NS,
        );
        if is_leader {
            for (n, chunk) in migr_out.into_iter().enumerate() {
                if n != my_node && !chunk.is_empty() {
                    let dst = topo.pes_on_node(n).next().expect("node has a PE");
                    mp.send_vec(ctx, dst, TAG_MIGRATE, chunk);
                }
            }
            for (src_node, &cnt) in migr_in.iter().enumerate() {
                if src_node != my_node && cnt > 0 {
                    let src = topo.pes_on_node(src_node).next().expect("node has a PE");
                    let (_, _, arrivals) =
                        mp.recv::<(u64, f64)>(ctx, RecvSpec::from(src, TAG_MIGRATE));
                    for (id, v) in arrivals {
                        pe.write(ctx, &vals, my_base + id as usize, v);
                    }
                }
            }
        }
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
        ctx.node_barrier();

        // My node's triangles, split among its PEs by block.
        let node_tris: Vec<usize> = (0..dual.len())
            .filter(|&i| parts[i] as usize == my_node)
            .collect();
        let mine = &node_tris
            [node_tris.len() * rank_in_node / k..node_tris.len() * (rank_in_node + 1) / k];

        // Boundary lists, derived identically on every PE from replicated
        // data: what my node sends each remote node, and what it receives
        // (the sender's list, computed from the sender's perspective).
        let mut send_ids: Vec<Vec<u64>> = vec![Vec::new(); nnodes];
        for &i in &node_tris {
            for &j in dual.neighbors(i) {
                let r = parts[j as usize] as usize;
                if r != my_node {
                    send_ids[r].push(u64::from(dual.tris[i]));
                }
            }
        }
        for l in &mut send_ids {
            l.sort_unstable();
            l.dedup();
        }
        // recv_ids[src] = remote-node tris whose values we import from src.
        let mut recv_ids: Vec<Vec<u64>> = vec![Vec::new(); nnodes];
        for i in 0..dual.len() {
            let src = parts[i] as usize;
            if src != my_node
                && dual
                    .neighbors(i)
                    .iter()
                    .any(|&j| parts[j as usize] as usize == my_node)
            {
                recv_ids[src].push(u64::from(dual.tris[i]));
            }
        }
        let mut ghost_slot: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        {
            let mut slot = 0usize;
            for l in &mut recv_ids {
                l.sort_unstable();
                l.dedup();
                for &id in l.iter() {
                    ghost_slot.insert(id, my_node * ghost_cap + slot);
                    slot += 1;
                }
            }
            assert!(slot <= ghost_cap, "ghost table capacity exceeded");
        }

        // (3) Sweeps: leader messages between nodes, coherence within.
        ctx.net_phase("solve");
        for _sweep in 0..cfg.sweeps {
            if is_leader {
                for (r, ids) in send_ids.iter().enumerate() {
                    if r != my_node && !ids.is_empty() {
                        let payload: Vec<(u64, f64)> = ids
                            .iter()
                            .map(|&id| (id, pe.read(ctx, &vals, my_base + id as usize)))
                            .collect();
                        let dst_leader = topo.pes_on_node(r).next().expect("node has a PE");
                        mp.send_vec(ctx, dst_leader, TAG_GHOST, payload);
                    }
                }
                // Receive ghosts from every neighbouring node and publish
                // them into this node's ghost table.
                for (src_node, ids) in recv_ids.iter().enumerate() {
                    if ids.is_empty() {
                        continue;
                    }
                    let src_leader = topo.pes_on_node(src_node).next().expect("node has a PE");
                    let (_, _, arrivals) =
                        mp.recv::<(u64, f64)>(ctx, RecvSpec::from(src_leader, TAG_GHOST));
                    for (id, v) in arrivals {
                        pe.write(ctx, &ghosts, ghost_slot[&id], v);
                    }
                }
            }
            ctx.node_barrier();

            let mut work = 0u64;
            let new_vals: Vec<f64> = mine
                .iter()
                .map(|&i| {
                    let nb = dual.neighbors(i);
                    work += nb.len() as u64;
                    if nb.is_empty() {
                        pe.read(ctx, &vals, my_base + dual.tris[i] as usize)
                    } else {
                        let s: f64 = nb
                            .iter()
                            .map(|&j| {
                                let id = dual.tris[j as usize];
                                if parts[j as usize] as usize == my_node {
                                    pe.read(ctx, &vals, my_base + id as usize)
                                } else {
                                    pe.read(ctx, &ghosts, ghost_slot[&u64::from(id)])
                                }
                            })
                            .sum();
                        s / nb.len() as f64
                    }
                })
                .collect();
            ctx.compute_units(work, W::SOLVER_PER_NEIGHBOR_NS);
            ctx.node_barrier();
            for (kk, &i) in mine.iter().enumerate() {
                pe.write(ctx, &vals, my_base + dual.tris[i] as usize, new_vals[kk]);
            }
            ctx.node_barrier();
        }
        // One global rendezvous per step keeps node clocks loosely coupled
        // (the adaptation phase is a machine-wide collective anyway).
        ctx.barrier();
    }

    let total = if ctx.pe() == 0 {
        // Measurement: read each triangle from its owner node's copy.
        state
            .active_tris()
            .iter()
            .map(|&t| vals.read_raw(owner[t as usize] as usize * cap + t as usize))
            .sum::<f64>()
    } else {
        0.0
    };
    ctx.broadcast(0, if ctx.pe() == 0 { Some(total) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;

    fn machine(pes: usize) -> Arc<Machine> {
        Arc::new(Machine::new(pes, MachineConfig::origin2000()))
    }

    #[test]
    fn runs_with_mixed_traffic() {
        let cfg = AmrConfig::small();
        let m = run(machine(8), &cfg);
        assert!(m.sim_time > 0);
        assert!(m.counters.msgs_sent > 0, "leaders must exchange messages");
        assert!(
            m.counters.cache_hits > 0,
            "node peers share through coherence"
        );
        // Far fewer messages than the pure MP version.
        let mp = crate::amr_mp::run(machine(8), &cfg);
        assert!(
            m.counters.msgs_sent < mp.counters.msgs_sent / 2,
            "hybrid ({}) should need far fewer messages than MP ({})",
            m.counters.msgs_sent,
            mp.counters.msgs_sent
        );
    }

    #[test]
    fn matches_other_models_bitwise() {
        let cfg = AmrConfig::small();
        let hy = run(machine(6), &cfg).checksum;
        let sas = crate::amr_sas::run(machine(4), &cfg).checksum;
        assert_eq!(hy, sas, "hybrid must compute the same Jacobi values");
    }

    #[test]
    fn checksum_independent_of_pe_count() {
        let cfg = AmrConfig::small();
        assert_eq!(
            run(machine(2), &cfg).checksum,
            run(machine(8), &cfg).checksum
        );
    }

    #[test]
    fn speeds_up() {
        let cfg = AmrConfig {
            nx: 16,
            ny: 16,
            steps: 3,
            sweeps: 3,
            ..AmrConfig::default()
        };
        let t1 = run(machine(1), &cfg).sim_time;
        let t8 = run(machine(8), &cfg).sim_time;
        assert!(t8 < t1);
    }
}
