//! The symmetric heap: collectively allocated, one-sided-accessible arrays.

use std::any::TypeId;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use machine::{cost, Machine, TimeCat};
use parallel::{Ctx, EventKind};
use parking_lot::Mutex;

use parallel::{Element, IntElement};

/// One symmetric region: `len` elements of some [`Element`] type on every PE.
struct Region {
    type_id: TypeId,
    len: usize,
    /// `mem[pe][i]` is element `i` of PE `pe`'s instance.
    mem: Vec<Box<[AtomicU64]>>,
}

/// Sentinel element type for regions rebuilt from a snapshot: the wire
/// format stores raw bit patterns with no type information, so imported
/// regions accept any [`SymWorld::attach`] of the right length.
struct Imported;

/// The SHMEM "world": registry of symmetric regions plus the machine model.
///
/// Created once before [`parallel::Team::run`] and shared by reference into
/// the PE closure, like the other model worlds.
pub struct SymWorld {
    machine: Arc<Machine>,
    regions: Mutex<Vec<Arc<Region>>>,
    alloc_seq: Vec<AtomicU32>,
}

impl SymWorld {
    /// A world covering every PE of `machine`.
    pub fn new(machine: Arc<Machine>) -> Self {
        let pes = machine.pes();
        SymWorld {
            machine,
            regions: Mutex::new(Vec::new()),
            alloc_seq: (0..pes).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of PEs.
    pub fn size(&self) -> usize {
        self.machine.pes()
    }

    /// The machine model.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Collective symmetric allocation (`shmalloc`): every PE must call this
    /// with the same `len`, in the same allocation sequence. Returns a handle
    /// to the region; PE `p`'s instance holds `len` elements of `T`.
    ///
    /// # Panics
    /// Panics if PEs disagree on the type or length of the allocation.
    pub fn alloc<T: Element>(&self, ctx: &mut Ctx, len: usize) -> SymSlice<T> {
        let idx = self.alloc_seq[ctx.pe()].fetch_add(1, Ordering::Relaxed) as usize;
        let region = {
            let mut regions = self.regions.lock();
            if regions.len() <= idx {
                debug_assert_eq!(regions.len(), idx, "allocation sequence skew");
                let pes = self.size();
                let mem = (0..pes)
                    .map(|_| (0..len).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>())
                    .collect();
                regions.push(Arc::new(Region {
                    type_id: TypeId::of::<T>(),
                    len,
                    mem,
                }));
            }
            let r = Arc::clone(&regions[idx]);
            assert_eq!(
                r.type_id,
                TypeId::of::<T>(),
                "symmetric alloc type mismatch"
            );
            assert_eq!(r.len, len, "symmetric alloc length mismatch");
            r
        };
        // Rendezvous so no PE uses the region before all have the handle
        // (shmalloc is specified as collective with an implicit barrier).
        ctx.barrier();
        SymSlice {
            machine: Arc::clone(&self.machine),
            region,
            _t: PhantomData,
        }
    }

    /// SHMEM `barrier_all`: clock-synchronising team barrier.
    pub fn barrier_all(&self, ctx: &mut Ctx) {
        ctx.barrier();
    }

    /// Wire-format version of [`SymWorld::export_state_bytes`].
    pub const STATE_VERSION: u64 = 2;

    /// Serialise every symmetric region (raw bit patterns, PE-major) for a
    /// checkpoint. Call at a quiescence point: puts already landed in the
    /// blackboard, so the cells are the complete one-sided state. Each
    /// PE's instance is stored up to its last non-zero cell: apps size
    /// their arrays for the worst case, and a fresh region is all zero.
    pub fn export_state_bytes(&self) -> Vec<u8> {
        let mut w = o2k_snap::wire::WireWriter::new();
        w.u64(Self::STATE_VERSION);
        w.u64(self.size() as u64);
        let regions = self.regions.lock();
        w.u64(regions.len() as u64);
        for r in regions.iter() {
            w.u64(r.len as u64);
            for pe_mem in &r.mem {
                let cells: Vec<u64> = pe_mem.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                let used = cells.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
                w.u64s(&cells[..used]);
            }
        }
        w.into_bytes()
    }

    /// Rebuild regions from [`SymWorld::export_state_bytes`] output.
    /// Host-side, before the team runs; PEs then re-acquire handles with
    /// [`SymWorld::attach`] in the original allocation order.
    ///
    /// # Errors
    /// Errors on version/PE-count mismatch, truncation, or a non-fresh
    /// world; the world is left untouched on error.
    pub fn import_state_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        let mut rd = o2k_snap::wire::WireReader::new(bytes);
        let ver = rd.u64()?;
        if ver != Self::STATE_VERSION {
            return Err(format!(
                "shmem snapshot version {ver}, expected {}",
                Self::STATE_VERSION
            ));
        }
        let pes = rd.u64()? as usize;
        if pes != self.size() {
            return Err(format!(
                "shmem snapshot has {pes} PEs, world has {}",
                self.size()
            ));
        }
        let n_regions = rd.u64()? as usize;
        let mut imported = Vec::with_capacity(n_regions);
        for _ in 0..n_regions {
            let len = rd.u64()? as usize;
            let mem: Vec<Box<[AtomicU64]>> = (0..pes)
                .map(|_| {
                    let mut cells = rd.u64s()?;
                    if cells.len() > len {
                        return Err(format!(
                            "shmem snapshot instance holds {} cells, region has {len}",
                            cells.len()
                        ));
                    }
                    cells.resize(len, 0);
                    Ok(cells.into_iter().map(AtomicU64::new).collect())
                })
                .collect::<Result<_, String>>()?;
            imported.push(Arc::new(Region {
                type_id: TypeId::of::<Imported>(),
                len,
                mem,
            }));
        }
        rd.finish()?;
        let mut regions = self.regions.lock();
        if !regions.is_empty() {
            return Err("shmem import into a world that already has regions".into());
        }
        *regions = imported;
        Ok(())
    }

    /// Re-acquire the next region in allocation order after an import.
    /// Unlike [`SymWorld::alloc`] this charges nothing and does not
    /// rendezvous — the straight run paid those costs before the snapshot,
    /// so they are already inside the restored clocks, and the regions
    /// exist before the team starts.
    ///
    /// # Panics
    /// Panics if the next region's length disagrees, or its element type
    /// (when known) is not `T`.
    pub fn attach<T: Element>(&self, ctx: &Ctx, len: usize) -> SymSlice<T> {
        let idx = self.alloc_seq[ctx.pe()].fetch_add(1, Ordering::Relaxed) as usize;
        let regions = self.regions.lock();
        let r = regions
            .get(idx)
            .unwrap_or_else(|| panic!("attach #{idx}: snapshot has only {} regions", regions.len()))
            .clone();
        assert!(
            r.type_id == TypeId::of::<Imported>() || r.type_id == TypeId::of::<T>(),
            "attach #{idx}: element type mismatch"
        );
        assert_eq!(r.len, len, "attach #{idx}: length mismatch");
        SymSlice {
            machine: Arc::clone(&self.machine),
            region: r,
            _t: PhantomData,
        }
    }
}

/// Handle to a symmetric array of `T` (`len` elements on each PE).
///
/// Clone freely; clones refer to the same region.
pub struct SymSlice<T: Element> {
    machine: Arc<Machine>,
    region: Arc<Region>,
    _t: PhantomData<T>,
}

impl<T: Element> Clone for SymSlice<T> {
    fn clone(&self) -> Self {
        SymSlice {
            machine: Arc::clone(&self.machine),
            region: Arc::clone(&self.region),
            _t: PhantomData,
        }
    }
}

impl<T: Element> SymSlice<T> {
    /// Elements per PE instance.
    pub fn len(&self) -> usize {
        self.region.len
    }

    /// True if the per-PE instance is empty.
    pub fn is_empty(&self) -> bool {
        self.region.len == 0
    }

    #[inline]
    fn cells(&self, pe: usize) -> &[AtomicU64] {
        &self.region.mem[pe]
    }

    /// One-sided put: write `data` into `target_pe`'s instance starting at
    /// `offset`. Charges initiator overhead + one-way network time; the
    /// data is visible to the target after the initiator's next fence or
    /// barrier (we store immediately — SHMEM allows the data to land any
    /// time before the fence).
    pub fn put(&self, ctx: &mut Ctx, target_pe: usize, offset: usize, data: &[T]) {
        for (i, v) in data.iter().enumerate() {
            self.cells(target_pe)[offset + i].store(v.to_bits(), Ordering::Relaxed);
        }
        let bytes = data.len() * T::BYTES;
        let hops = self.machine.hops_between(ctx.pe(), target_pe);
        let mut run = ctx.charge_run();
        ctx.charge_to_pe(&mut run, target_pe, bytes);
        let net_delay = ctx.flush_charge(run);
        ctx.advance_traced(
            cost::put(&self.machine.config, bytes, hops) + net_delay,
            TimeCat::Remote,
            EventKind::Put,
            bytes.min(u32::MAX as usize) as u32,
            Some(target_pe as u32),
        );
        let c = ctx.counters_mut();
        c.puts += 1;
        c.put_bytes += bytes as u64;
    }

    /// One-sided get: read `len` elements from `source_pe`'s instance
    /// starting at `offset`. Charges a round trip.
    pub fn get(&self, ctx: &mut Ctx, source_pe: usize, offset: usize, len: usize) -> Vec<T> {
        let out: Vec<T> = self.cells(source_pe)[offset..offset + len]
            .iter()
            .map(|c| T::from_bits(c.load(Ordering::Relaxed)))
            .collect();
        let bytes = len * T::BYTES;
        let hops = self.machine.hops_between(ctx.pe(), source_pe);
        // A get's payload flows source→initiator; the queueing model routes
        // in that direction (the request hop rides the same links). Under
        // ContentionMode::Fabric the remote hub — where SHMEM pays its
        // contention in the paper — arbitrates the transfer too.
        let mut run = ctx.charge_run();
        ctx.charge_to_pe(&mut run, source_pe, bytes);
        let net_delay = ctx.flush_charge(run);
        ctx.advance_traced(
            cost::get(&self.machine.config, bytes, hops) + net_delay,
            TimeCat::Remote,
            EventKind::Get,
            bytes.min(u32::MAX as usize) as u32,
            Some(source_pe as u32),
        );
        let c = ctx.counters_mut();
        c.gets += 1;
        c.get_bytes += bytes as u64;
        out
    }

    /// Single-element put.
    pub fn put1(&self, ctx: &mut Ctx, target_pe: usize, offset: usize, v: T) {
        self.put(ctx, target_pe, offset, &[v]);
    }

    /// Single-element get.
    pub fn get1(&self, ctx: &mut Ctx, source_pe: usize, offset: usize) -> T {
        self.get(ctx, source_pe, offset, 1)[0]
    }

    /// Write to this PE's own instance (normal local store; no network
    /// charge — local cost is part of the application's compute model).
    pub fn write_local(&self, ctx: &Ctx, offset: usize, data: &[T]) {
        for (i, v) in data.iter().enumerate() {
            self.cells(ctx.pe())[offset + i].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Read from this PE's own instance.
    pub fn read_local(&self, ctx: &Ctx, offset: usize, len: usize) -> Vec<T> {
        self.cells(ctx.pe())[offset..offset + len]
            .iter()
            .map(|c| T::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Read one element of this PE's own instance.
    pub fn read_local1(&self, ctx: &Ctx, offset: usize) -> T {
        T::from_bits(self.cells(ctx.pe())[offset].load(Ordering::Relaxed))
    }

    /// Memory fence (`shmem_quiet`): orders this PE's outstanding puts.
    pub fn quiet(&self, ctx: &mut Ctx) {
        std::sync::atomic::fence(Ordering::SeqCst);
        // A quiet waits for put acknowledgements: one hop-free round trip.
        ctx.advance_traced(
            self.machine.config.shmem_put_overhead,
            TimeCat::Remote,
            EventKind::ShmemColl,
            0,
            None,
        );
    }

    /// SHMEM broadcast: `root`'s `[offset .. offset+len]` is copied into the
    /// same range on every other PE, charged as a log-tree of puts.
    pub fn broadcast(&self, ctx: &mut Ctx, root: usize, offset: usize, len: usize) {
        // Values move through the blackboard for simplicity; the cost model
        // below matches a binomial tree of puts.
        let vals: Vec<u64> = if ctx.pe() == root {
            self.cells(root)[offset..offset + len]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        } else {
            Vec::new()
        };
        let vals = ctx.broadcast(root, if ctx.pe() == root { Some(vals) } else { None });
        if ctx.pe() != root {
            for (i, v) in vals.iter().enumerate() {
                self.cells(ctx.pe())[offset + i].store(*v, Ordering::Relaxed);
            }
        }
        let bytes = len * T::BYTES;
        let hops = self.machine.topology.max_hops();
        let per_level = cost::put(&self.machine.config, bytes, hops);
        let depth = u64::from(self.machine.topology.tree_depth());
        // The binomial tree is rooted at the root PE's node: model the
        // fan-out contention at that funnel.
        let mut run = ctx.charge_run();
        run.to_node(self.machine.topology.node_of(root), bytes);
        let net_delay = ctx.flush_charge(run);
        ctx.advance_traced(
            depth * per_level + net_delay,
            TimeCat::Remote,
            EventKind::ShmemColl,
            bytes.min(u32::MAX as usize) as u32,
            None,
        );
    }
}

impl<T: IntElement> SymSlice<T> {
    /// Remote atomic fetch-add; returns the previous value.
    pub fn fadd(&self, ctx: &mut Ctx, target_pe: usize, offset: usize, delta: T) -> T {
        let old = atomic_bits_add(&self.cells(target_pe)[offset], delta.to_bits(), T::add_bits);
        self.charge_amo(ctx, target_pe);
        T::from_bits(old)
    }

    /// Remote atomic compare-and-swap; returns the value observed (equal to
    /// `expected` iff the swap happened).
    pub fn cswap(
        &self,
        ctx: &mut Ctx,
        target_pe: usize,
        offset: usize,
        expected: T,
        desired: T,
    ) -> T {
        let cell = &self.cells(target_pe)[offset];
        let r = cell.compare_exchange(
            expected.to_bits(),
            desired.to_bits(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.charge_amo(ctx, target_pe);
        T::from_bits(r.unwrap_or_else(|v| v))
    }

    /// Remote atomic swap; returns the previous value.
    pub fn swap(&self, ctx: &mut Ctx, target_pe: usize, offset: usize, v: T) -> T {
        let old = self.cells(target_pe)[offset].swap(v.to_bits(), Ordering::SeqCst);
        self.charge_amo(ctx, target_pe);
        T::from_bits(old)
    }

    fn charge_amo(&self, ctx: &mut Ctx, target_pe: usize) {
        let hops = self.machine.hops_between(ctx.pe(), target_pe);
        let mut run = ctx.charge_run();
        ctx.charge_to_pe(&mut run, target_pe, T::BYTES);
        let net_delay = ctx.flush_charge(run);
        ctx.advance_traced(
            cost::amo(&self.machine.config, hops) + net_delay,
            TimeCat::Remote,
            EventKind::Amo,
            T::BYTES.min(u32::MAX as usize) as u32,
            Some(target_pe as u32),
        );
        ctx.counters_mut().amos += 1;
    }
}

/// CAS-loop fetch-add in bit space (needed because the add must go through
/// the element's own wrapping semantics, not raw u64 wrapping, for 4-byte
/// types — though with masking on decode they agree; the loop also supports
/// future float AMOs).
fn atomic_bits_add(cell: &AtomicU64, delta: u64, add: fn(u64, u64) -> u64) -> u64 {
    let mut cur = cell.load(Ordering::SeqCst);
    loop {
        let next = add(cur, delta);
        match cell.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(prev) => return prev,
            Err(now) => cur = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;

    fn setup(pes: usize) -> (Arc<SymWorld>, Team) {
        let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
        (
            Arc::new(SymWorld::new(Arc::clone(&machine))),
            Team::new(machine),
        )
    }

    #[test]
    fn put_get_roundtrip_across_pes() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 4);
            if ctx.pe() == 0 {
                s.put(ctx, 1, 0, &[1.0, 2.0, 3.0, 4.0]);
            }
            w.barrier_all(ctx);
            if ctx.pe() == 1 {
                s.read_local(ctx, 0, 4)
            } else {
                s.get(ctx, 1, 0, 4)
            }
        });
        assert_eq!(run.results[0], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(run.results[1], vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn instances_are_per_pe() {
        let (w, t) = setup(3);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1);
            s.write_local(ctx, 0, &[ctx.pe() as u64 * 100]);
            w.barrier_all(ctx);
            (0..3).map(|pe| s.get1(ctx, pe, 0)).collect::<Vec<_>>()
        });
        for r in run.results {
            assert_eq!(r, vec![0, 100, 200]);
        }
    }

    #[test]
    fn multiple_allocations_line_up() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let a = w.alloc::<u64>(ctx, 2);
            let b = w.alloc::<f64>(ctx, 3);
            a.write_local(ctx, 0, &[7, 8]);
            b.write_local(ctx, 0, &[0.5; 3]);
            w.barrier_all(ctx);
            let other = 1 - ctx.pe();
            (a.get1(ctx, other, 1), b.get1(ctx, other, 2))
        });
        assert_eq!(run.results[0], (8, 0.5));
        assert_eq!(run.results[1], (8, 0.5));
    }

    #[test]
    fn fadd_accumulates_atomically() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1);
            for _ in 0..100 {
                s.fadd(ctx, 0, 0, 1u64);
            }
            w.barrier_all(ctx);
            s.get1(ctx, 0, 0)
        });
        for r in run.results {
            assert_eq!(r, 400);
        }
    }

    #[test]
    fn fadd_returns_unique_tickets() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1);
            s.fadd(ctx, 0, 0, 1u64)
        });
        let mut tickets = run.results.clone();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cswap_exactly_one_winner() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<i64>(ctx, 1);
            let seen = s.cswap(ctx, 0, 0, 0i64, ctx.pe() as i64 + 1);
            w.barrier_all(ctx);
            (seen == 0, s.get1(ctx, 0, 0))
        });
        let winners = run.results.iter().filter(|(won, _)| *won).count();
        assert_eq!(winners, 1);
        let finals: Vec<i64> = run.results.iter().map(|(_, v)| *v).collect();
        assert!(finals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn swap_returns_previous() {
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            let s = w.alloc::<u32>(ctx, 1);
            s.write_local(ctx, 0, &[5]);
            let old = s.swap(ctx, 0, 0, 9u32);
            (old, s.read_local1(ctx, 0))
        });
        assert_eq!(run.results[0], (5, 9));
    }

    #[test]
    fn broadcast_copies_root_instance() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 3);
            if ctx.pe() == 2 {
                s.write_local(ctx, 0, &[9.0, 8.0, 7.0]);
            }
            s.broadcast(ctx, 2, 0, 3);
            s.read_local(ctx, 0, 3)
        });
        for r in run.results {
            assert_eq!(r, vec![9.0, 8.0, 7.0]);
        }
    }

    #[test]
    fn put_cheaper_than_get_roundtrip() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 8);
            let before = ctx.now();
            if ctx.pe() == 0 {
                s.put(ctx, 3, 0, &[1; 8]);
            }
            let after_put = ctx.now() - before;
            let before = ctx.now();
            if ctx.pe() == 0 {
                let _ = s.get(ctx, 3, 0, 8);
            }
            (after_put, ctx.now() - before)
        });
        let (put_t, get_t) = run.results[0];
        assert!(put_t > 0 && get_t > put_t);
    }

    #[test]
    fn counters_track_one_sided_traffic() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 4);
            if ctx.pe() == 0 {
                s.put(ctx, 1, 0, &[0.0; 4]);
                let _ = s.get(ctx, 1, 0, 2);
            }
        });
        let c = &run.reports[0].counters;
        assert_eq!(c.puts, 1);
        assert_eq!(c.put_bytes, 32);
        assert_eq!(c.gets, 1);
        assert_eq!(c.get_bytes, 16);
    }

    #[test]
    fn export_import_attach_preserves_every_cell() {
        let (w, t) = setup(3);
        t.run(|ctx| {
            let a = w.alloc::<u64>(ctx, 4);
            let b = w.alloc::<f64>(ctx, 2);
            a.write_local(ctx, 0, &[ctx.pe() as u64; 4]);
            b.write_local(ctx, 0, &[0.25 * ctx.pe() as f64, -0.0]);
            w.barrier_all(ctx);
        });
        let bytes = w.export_state_bytes();

        let machine = Arc::new(Machine::new(3, MachineConfig::test_tiny()));
        let w2 = Arc::new(SymWorld::new(Arc::clone(&machine)));
        w2.import_state_bytes(&bytes).unwrap();
        let run = Team::new(machine).run(|ctx| {
            let a = w2.attach::<u64>(ctx, 4);
            let b = w2.attach::<f64>(ctx, 2);
            let t0 = ctx.now();
            let av = a.read_local(ctx, 0, 4);
            let bv = b.read_local(ctx, 0, 2);
            // Attach must be free: the straight run already paid alloc.
            assert_eq!(ctx.now(), t0);
            // And the region must still be live for one-sided traffic.
            let other = (ctx.pe() + 1) % 3;
            let remote = a.get1(ctx, other, 0);
            (av, bv, remote)
        });
        for (pe, (av, bv, remote)) in run.results.iter().enumerate() {
            assert_eq!(*av, vec![pe as u64; 4]);
            assert_eq!(bv[0], 0.25 * pe as f64);
            assert_eq!(bv[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(*remote, ((pe + 1) % 3) as u64);
        }
    }

    #[test]
    fn import_rejects_wrong_shape_and_dirty_world() {
        let (w, t) = setup(2);
        t.run(|ctx| {
            let _ = w.alloc::<u64>(ctx, 1);
        });
        let bytes = w.export_state_bytes();
        // PE-count mismatch.
        let m3 = Arc::new(Machine::new(3, MachineConfig::test_tiny()));
        assert!(SymWorld::new(m3).import_state_bytes(&bytes).is_err());
        // Truncation.
        let m2 = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let fresh = SymWorld::new(Arc::clone(&m2));
        assert!(fresh.import_state_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Importing over existing regions.
        assert!(w.import_state_bytes(&bytes).is_err());
        // The clean path still works.
        assert!(fresh.import_state_bytes(&bytes).is_ok());
    }

    #[test]
    fn quiet_orders_and_charges() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1);
            let before = ctx.now();
            s.quiet(ctx);
            ctx.now() > before
        });
        assert!(run.results.iter().all(|&b| b));
    }
}

impl SymSlice<f64> {
    /// SHMEM-style `sum_to_all`: element-wise sum of every PE's
    /// `[offset .. offset+len)` range lands in the same range on every PE.
    /// Charged as a recursive-doubling exchange (log P rounds of puts).
    pub fn sum_to_all(&self, ctx: &mut Ctx, offset: usize, len: usize) {
        let mine = self.read_local(ctx, offset, len);
        let summed = ctx.allreduce(mine, |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect());
        self.write_local(ctx, offset, &summed);
        self.charge_rounds(ctx, len * 8);
    }

    /// SHMEM-style `max_to_all` (see [`SymSlice::sum_to_all`]).
    pub fn max_to_all(&self, ctx: &mut Ctx, offset: usize, len: usize) {
        let mine = self.read_local(ctx, offset, len);
        let reduced = ctx.allreduce(mine, |a, b| {
            a.iter().zip(b).map(|(x, y)| x.max(*y)).collect()
        });
        self.write_local(ctx, offset, &reduced);
        self.charge_rounds(ctx, len * 8);
    }
}

impl<T: Element> SymSlice<T> {
    /// SHMEM-style `fcollect`: every PE's `[0 .. len)` range is
    /// concatenated in PE order into `[0 .. len * npes)` on every PE.
    ///
    /// # Panics
    /// Panics if the slice is shorter than `len * npes`.
    pub fn fcollect(&self, ctx: &mut Ctx, len: usize) {
        let p = ctx.machine().pes();
        assert!(self.len() >= len * p, "fcollect needs len*npes capacity");
        let mine: Vec<u64> = self.cells(ctx.pe())[..len]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let all = ctx.gather_all(mine);
        let me = ctx.pe();
        for (src, chunk) in all.into_iter().enumerate() {
            for (i, bits) in chunk.into_iter().enumerate() {
                self.cells(me)[src * len + i].store(bits, Ordering::Relaxed);
            }
        }
        self.charge_rounds(ctx, len * T::BYTES * p);
    }

    /// Log-tree cost of a collective moving `bytes` per round.
    fn charge_rounds(&self, ctx: &mut Ctx, bytes: usize) {
        let depth = u64::from(self.machine.topology.tree_depth());
        let hops = self.machine.topology.max_hops();
        let per_round = cost::put(&self.machine.config, bytes, hops);
        // All-to-all reduction trees funnel through node 0 in our cost
        // model; charge that link's queueing under contention.
        let mut run = ctx.charge_run();
        run.to_node(0, bytes);
        let net_delay = ctx.flush_charge(run);
        ctx.advance_traced(
            depth * per_round + net_delay,
            TimeCat::Remote,
            EventKind::ShmemColl,
            bytes.min(u32::MAX as usize) as u32,
            None,
        );
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;

    fn setup(pes: usize) -> (Arc<SymWorld>, Team) {
        let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
        (
            Arc::new(SymWorld::new(Arc::clone(&machine))),
            Team::new(machine),
        )
    }

    #[test]
    fn sum_to_all_sums_elementwise() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 3);
            let me = ctx.pe() as f64;
            s.write_local(ctx, 0, &[me, 2.0 * me, 1.0]);
            s.sum_to_all(ctx, 0, 3);
            s.read_local(ctx, 0, 3)
        });
        for r in run.results {
            assert_eq!(r, vec![6.0, 12.0, 4.0]);
        }
    }

    #[test]
    fn max_to_all_takes_maxima() {
        let (w, t) = setup(3);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 2);
            s.write_local(ctx, 0, &[ctx.pe() as f64, -(ctx.pe() as f64)]);
            s.max_to_all(ctx, 0, 2);
            s.read_local(ctx, 0, 2)
        });
        for r in run.results {
            assert_eq!(r, vec![2.0, 0.0]);
        }
    }

    #[test]
    fn fcollect_concatenates_in_pe_order() {
        let (w, t) = setup(3);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 2 * 3);
            s.write_local(ctx, 0, &[ctx.pe() as u64 * 10, ctx.pe() as u64 * 10 + 1]);
            s.fcollect(ctx, 2);
            s.read_local(ctx, 0, 6)
        });
        for r in run.results {
            assert_eq!(r, vec![0, 1, 10, 11, 20, 21]);
        }
    }

    #[test]
    fn collectives_charge_time() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 4);
            let before = ctx.now();
            s.sum_to_all(ctx, 0, 4);
            ctx.now() > before
        });
        assert!(run.results.iter().all(|&b| b));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// put → barrier → get returns exactly what was put, for arbitrary
        /// payloads, offsets and PE pairs.
        #[test]
        fn put_get_roundtrip(
            pes in 2usize..6,
            data in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 1..32),
            offset in 0usize..16,
        ) {
            let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
            let w = Arc::new(SymWorld::new(Arc::clone(&machine)));
            let data = Arc::new(data);
            let run = Team::new(machine).run(|ctx| {
                let s = w.alloc::<f64>(ctx, offset + data.len());
                if ctx.pe() == 0 {
                    s.put(ctx, ctx.npes() - 1, offset, &data);
                }
                ctx.barrier();
                s.get(ctx, ctx.npes() - 1, offset, data.len())
            });
            for r in run.results {
                prop_assert_eq!(&r, &*data);
            }
        }

        /// Concurrent fetch-adds from every PE always sum exactly, and the
        /// returned tickets are unique.
        #[test]
        fn fadd_tickets_unique_and_complete(
            pes in 2usize..6,
            per_pe in 1usize..20,
        ) {
            let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
            let w = Arc::new(SymWorld::new(Arc::clone(&machine)));
            let run = Team::new(machine).run(|ctx| {
                let s = w.alloc::<u64>(ctx, 1);
                let tickets: Vec<u64> =
                    (0..per_pe).map(|_| s.fadd(ctx, 0, 0, 1u64)).collect();
                ctx.barrier();
                (tickets, s.get1(ctx, 0, 0))
            });
            let mut all: Vec<u64> = run
                .results
                .iter()
                .flat_map(|(t, _)| t.iter().copied())
                .collect();
            all.sort_unstable();
            let expect: Vec<u64> = (0..(pes * per_pe) as u64).collect();
            prop_assert_eq!(all, expect);
            for (_, total) in &run.results {
                prop_assert_eq!(*total, (pes * per_pe) as u64);
            }
        }
    }
}
