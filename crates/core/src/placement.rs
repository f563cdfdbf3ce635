//! Page placement across a multi-GPU fleet.
//!
//! When the simulated machine has more than one GPU, every large-page
//! region of every address space *lives somewhere*: exactly one device
//! owns its frames, and a warp access from another device pays a remote
//! traversal over the inter-GPU interconnect. [`PlacementMap`] tracks
//! that ownership at large-page (2 MB) granularity and implements the
//! three classic placement policies the multi-GPU literature (MGSim /
//! MGMark) evaluates:
//!
//! * **first-touch** — a region is owned by the GPU that faults it in,
//!   and never moves;
//! * **replicate-read-only** — on top of first-touch, a region that has
//!   never been written may be copied to a reading remote GPU; the first
//!   store invalidates every replica and poisons the region against
//!   future replication;
//! * **migrate-on-threshold** — on top of first-touch, a per-(region,
//!   GPU) remote-access counter migrates the region to a remote reader
//!   once it has paid exactly `threshold` remote accesses.
//!
//! The map is policy bookkeeping only: it decides *what* happens
//! ([`PlacementOutcome`]) and counts it, while the simulator charges the
//! interconnect wire time and the `remote`/`migrate` stall buckets.
//! Ownership is unique by construction — a region has one owner and
//! replicas are explicit read-only copies — which is the invariant the
//! conformance fuzzer's residency oracle re-derives from the access
//! stream.

use mosaic_sim_core::{OpenTable, TableKey};
use mosaic_vm::{AppId, LargePageNum, LARGE_PAGE_SIZE};

/// Upper bound on fleet size the placement bitmasks support.
pub const MAX_GPUS: usize = 8;

/// How a multi-GPU fleet places (and re-places) pages across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Own where first touched; never move.
    #[default]
    FirstTouch,
    /// First-touch, plus read-only regions replicate to remote readers.
    ReplicateReadOnly,
    /// First-touch, plus a region migrates to a remote GPU once that GPU
    /// has performed exactly `threshold` remote accesses to it.
    MigrateOnThreshold {
        /// Remote accesses (from one GPU) that trigger the migration.
        threshold: u32,
    },
}

impl PlacementPolicy {
    /// Short label for reports and config axes.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::FirstTouch => "first-touch",
            PlacementPolicy::ReplicateReadOnly => "replicate-ro",
            PlacementPolicy::MigrateOnThreshold { .. } => "migrate",
        }
    }
}

/// What one access decided, and what the simulator must charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementOutcome {
    /// The region is resident on the accessing GPU (owner or replica).
    Local,
    /// The access crosses the interconnect to `owner`'s DRAM.
    Remote {
        /// GPU whose memory services the access.
        owner: usize,
    },
    /// The threshold fired: the region's 2 MB move from `from` to the
    /// accessing GPU (which now owns it), and the access completes
    /// locally behind the migration.
    Migrate {
        /// Previous owner the bytes leave.
        from: usize,
    },
    /// A read-only replica of the region's 2 MB is copied from `from`
    /// to the accessing GPU; this and future reads are local.
    Replicate {
        /// Owner the replica is copied from.
        from: usize,
    },
}

/// One large-page region of one address space: the placement table's
/// key. Ordered by address space, then page, as `placed()` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Region {
    asid: AppId,
    lpn: LargePageNum,
}

/// The empty key is one no real region has: large page numbers are far
/// below `u64::MAX`.
impl TableKey for Region {
    const EMPTY: Self = Region { asid: AppId(u16::MAX), lpn: LargePageNum(u64::MAX) };

    fn mix(self) -> u64 {
        self.lpn.0 ^ (u64::from(self.asid.0) << 40)
    }
}

/// Per-region placement state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Home {
    /// The owning GPU.
    owner: usize,
    /// Bitmask of GPUs holding a read-only replica (owner bit unset; the
    /// owner is resident by definition).
    replicas: u8,
    /// Whether the region has ever been stored to — replication is then
    /// off forever (the first store also dropped any replicas).
    written: bool,
    /// Per-GPU remote-access counters for `migrate-on-threshold`.
    remote: [u32; MAX_GPUS],
}

/// Placement accounting, folded into the fleet stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Warp accesses serviced by a remote GPU's memory.
    pub remote_accesses: u64,
    /// Regions migrated between devices.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migrated_bytes: u64,
    /// Read-only replicas created.
    pub replications: u64,
    /// Bytes copied by replications.
    pub replicated_bytes: u64,
    /// Replicas invalidated by stores.
    pub replica_invalidations: u64,
}

/// Large-page-granular frame ownership across a fleet.
///
/// Every L1-missing warp access of a fleet run resolves here, so the
/// regions live in an [`OpenTable`] (one hashed probe) rather than an
/// ordered map. Only [`PlacementMap::placed`] needs an order, and it
/// sorts.
#[derive(Debug)]
pub struct PlacementMap {
    gpus: usize,
    policy: PlacementPolicy,
    homes: OpenTable<Region, Home>,
    stats: PlacementStats,
}

impl PlacementMap {
    /// An empty map for a fleet of `gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero or exceeds [`MAX_GPUS`].
    pub fn new(gpus: usize, policy: PlacementPolicy) -> Self {
        assert!((1..=MAX_GPUS).contains(&gpus), "fleet size {gpus} out of range 1..={MAX_GPUS}");
        PlacementMap { gpus, policy, homes: OpenTable::new(), stats: PlacementStats::default() }
    }

    /// Accounting so far.
    pub fn stats(&self) -> &PlacementStats {
        &self.stats
    }

    /// The GPU owning `(asid, lpn)`, if the region has been placed.
    pub fn owner(&self, asid: AppId, lpn: LargePageNum) -> Option<usize> {
        self.homes.get(Region { asid, lpn }).map(|h| h.owner)
    }

    /// The GPUs holding a read-only replica of `(asid, lpn)` (never
    /// includes the owner).
    pub fn replicas(&self, asid: AppId, lpn: LargePageNum) -> Vec<usize> {
        match self.homes.get(Region { asid, lpn }) {
            Some(h) => (0..self.gpus).filter(|&g| h.replicas & (1 << g) != 0).collect(),
            None => Vec::new(),
        }
    }

    /// Number of regions currently placed.
    pub fn regions(&self) -> usize {
        self.homes.len()
    }

    /// Every placed region with its owning device, in key order
    /// (address space, then page) — the residency sweep the system audit
    /// walks.
    pub fn placed(&self) -> impl Iterator<Item = (AppId, LargePageNum, usize)> {
        let mut placed: Vec<_> = self.homes.iter().collect();
        placed.sort_unstable_by_key(|&(region, _)| region);
        placed.into_iter().map(|(r, h)| (r.asid, r.lpn, h.owner))
    }

    /// Resolves one warp access from `gpu` to `(asid, lpn)`, updating
    /// ownership, replicas, and counters per the policy. A single-GPU
    /// fleet always resolves [`PlacementOutcome::Local`].
    pub fn access(
        &mut self,
        asid: AppId,
        lpn: LargePageNum,
        gpu: usize,
        store: bool,
    ) -> PlacementOutcome {
        debug_assert!(gpu < self.gpus, "GPU {gpu} out of range for a {}-GPU fleet", self.gpus);
        // First touch: the faulting GPU owns the region.
        let home =
            self.homes.get_or_insert(Region { asid, lpn }, Home { owner: gpu, ..Home::default() });
        if store {
            home.written = true;
            if home.replicas != 0 {
                // Invalidate every replica: a written region is resident
                // on its owner only.
                self.stats.replica_invalidations += u64::from(home.replicas.count_ones());
                home.replicas = 0;
            }
        }
        if home.owner == gpu {
            return PlacementOutcome::Local;
        }
        if !store && home.replicas & (1 << gpu) != 0 {
            return PlacementOutcome::Local;
        }
        self.stats.remote_accesses += 1;
        match self.policy {
            PlacementPolicy::MigrateOnThreshold { threshold } => {
                home.remote[gpu] += 1;
                if home.remote[gpu] == threshold.max(1) {
                    let from = home.owner;
                    home.owner = gpu;
                    home.remote = [0; MAX_GPUS];
                    if home.replicas != 0 {
                        self.stats.replica_invalidations += u64::from(home.replicas.count_ones());
                        home.replicas = 0;
                    }
                    self.stats.migrations += 1;
                    self.stats.migrated_bytes += LARGE_PAGE_SIZE;
                    return PlacementOutcome::Migrate { from };
                }
                PlacementOutcome::Remote { owner: home.owner }
            }
            PlacementPolicy::ReplicateReadOnly if !store && !home.written => {
                home.replicas |= 1 << gpu;
                self.stats.replications += 1;
                self.stats.replicated_bytes += LARGE_PAGE_SIZE;
                PlacementOutcome::Replicate { from: home.owner }
            }
            _ => PlacementOutcome::Remote { owner: home.owner },
        }
    }

    /// Forgets the placement of `(asid, lpn)` — the region was
    /// deallocated and its frames freed. A later access first-touches it
    /// afresh.
    pub fn remove(&mut self, asid: AppId, lpn: LargePageNum) {
        self.homes.remove(Region { asid, lpn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);

    fn lpn(n: u64) -> LargePageNum {
        LargePageNum(n)
    }

    #[test]
    fn first_touch_places_on_the_faulting_gpu_forever() {
        let mut map = PlacementMap::new(4, PlacementPolicy::FirstTouch);
        assert_eq!(map.access(A, lpn(7), 2, false), PlacementOutcome::Local);
        assert_eq!(map.owner(A, lpn(7)), Some(2));
        // Any number of accesses from elsewhere stay remote.
        for _ in 0..100 {
            assert_eq!(map.access(A, lpn(7), 0, true), PlacementOutcome::Remote { owner: 2 });
        }
        assert_eq!(map.owner(A, lpn(7)), Some(2), "first-touch never moves");
        assert_eq!(map.stats().remote_accesses, 100);
        assert_eq!(map.stats().migrations, 0);
        assert_eq!(map.stats().replications, 0);
    }

    #[test]
    fn replicate_read_only_copies_once_then_hits_locally() {
        let mut map = PlacementMap::new(2, PlacementPolicy::ReplicateReadOnly);
        assert_eq!(map.access(A, lpn(0), 0, false), PlacementOutcome::Local);
        assert_eq!(map.access(A, lpn(0), 1, false), PlacementOutcome::Replicate { from: 0 });
        assert_eq!(map.replicas(A, lpn(0)), vec![1]);
        // The replica now services reads locally.
        assert_eq!(map.access(A, lpn(0), 1, false), PlacementOutcome::Local);
        assert_eq!(map.stats().replications, 1);
        assert_eq!(map.stats().replicated_bytes, LARGE_PAGE_SIZE);
    }

    #[test]
    fn a_store_invalidates_replicas_and_poisons_the_region() {
        let mut map = PlacementMap::new(2, PlacementPolicy::ReplicateReadOnly);
        map.access(A, lpn(0), 0, false);
        map.access(A, lpn(0), 1, false); // replica on GPU 1
                                         // A store from the owner drops the replica...
        assert_eq!(map.access(A, lpn(0), 0, true), PlacementOutcome::Local);
        assert_eq!(map.replicas(A, lpn(0)), Vec::<usize>::new());
        assert_eq!(map.stats().replica_invalidations, 1);
        // ...and the region never replicates again.
        assert_eq!(map.access(A, lpn(0), 1, false), PlacementOutcome::Remote { owner: 0 });
        assert_eq!(map.access(A, lpn(0), 1, false), PlacementOutcome::Remote { owner: 0 });
        assert_eq!(map.stats().replications, 1, "no replication after a store, ever");
    }

    #[test]
    fn stores_never_replicate() {
        let mut map = PlacementMap::new(2, PlacementPolicy::ReplicateReadOnly);
        map.access(A, lpn(3), 0, false);
        assert_eq!(map.access(A, lpn(3), 1, true), PlacementOutcome::Remote { owner: 0 });
        assert_eq!(map.stats().replications, 0);
    }

    #[test]
    fn migrate_fires_exactly_at_the_threshold() {
        let mut map = PlacementMap::new(2, PlacementPolicy::MigrateOnThreshold { threshold: 3 });
        map.access(A, lpn(5), 0, false);
        // Two remote accesses stay remote; the third migrates.
        assert_eq!(map.access(A, lpn(5), 1, false), PlacementOutcome::Remote { owner: 0 });
        assert_eq!(map.access(A, lpn(5), 1, false), PlacementOutcome::Remote { owner: 0 });
        assert_eq!(map.access(A, lpn(5), 1, false), PlacementOutcome::Migrate { from: 0 });
        assert_eq!(map.owner(A, lpn(5)), Some(1));
        assert_eq!(map.access(A, lpn(5), 1, false), PlacementOutcome::Local);
        assert_eq!(map.stats().migrations, 1);
        assert_eq!(map.stats().migrated_bytes, LARGE_PAGE_SIZE, "2 MB accounted per migration");
        // Counters reset on migration: the old owner must now pay the
        // full threshold to pull it back.
        assert_eq!(map.access(A, lpn(5), 0, false), PlacementOutcome::Remote { owner: 1 });
        assert_eq!(map.access(A, lpn(5), 0, false), PlacementOutcome::Remote { owner: 1 });
        assert_eq!(map.access(A, lpn(5), 0, false), PlacementOutcome::Migrate { from: 1 });
    }

    #[test]
    fn single_gpu_fleet_is_always_local() {
        let mut map = PlacementMap::new(1, PlacementPolicy::MigrateOnThreshold { threshold: 1 });
        for i in 0..10 {
            assert_eq!(map.access(A, lpn(i), 0, i % 2 == 0), PlacementOutcome::Local);
        }
        assert_eq!(map.stats(), &PlacementStats::default());
    }

    #[test]
    fn removal_forgets_ownership() {
        let mut map = PlacementMap::new(2, PlacementPolicy::FirstTouch);
        map.access(A, lpn(9), 1, false);
        map.remove(A, lpn(9));
        assert_eq!(map.owner(A, lpn(9)), None);
        // Next toucher becomes the new first-touch owner.
        assert_eq!(map.access(A, lpn(9), 0, false), PlacementOutcome::Local);
        assert_eq!(map.owner(A, lpn(9)), Some(0));
    }

    #[test]
    fn ownership_is_unique_by_construction() {
        let mut map = PlacementMap::new(4, PlacementPolicy::MigrateOnThreshold { threshold: 2 });
        for step in 0u64..200 {
            let gpu = (step % 4) as usize;
            let region = lpn(step % 5);
            map.access(A, region, gpu, step % 7 == 0);
            // One owner per region; replicas never include the owner.
            for r in 0..5 {
                if let Some(owner) = map.owner(A, lpn(r)) {
                    assert!(!map.replicas(A, lpn(r)).contains(&owner));
                }
            }
        }
    }

    /// The map as it was before the open-addressed table: a `BTreeMap`
    /// keyed by `(asid, lpn)`, with the same policy code. The reference
    /// the table must reproduce.
    struct BTreePlacement {
        gpus: usize,
        policy: PlacementPolicy,
        homes: std::collections::BTreeMap<(AppId, LargePageNum), Home>,
        stats: PlacementStats,
    }

    impl BTreePlacement {
        fn access(
            &mut self,
            asid: AppId,
            lpn: LargePageNum,
            gpu: usize,
            store: bool,
        ) -> PlacementOutcome {
            let home =
                self.homes.entry((asid, lpn)).or_insert(Home { owner: gpu, ..Home::default() });
            if store {
                home.written = true;
                if home.replicas != 0 {
                    self.stats.replica_invalidations += u64::from(home.replicas.count_ones());
                    home.replicas = 0;
                }
            }
            if home.owner == gpu || (!store && home.replicas & (1 << gpu) != 0) {
                return PlacementOutcome::Local;
            }
            self.stats.remote_accesses += 1;
            match self.policy {
                PlacementPolicy::MigrateOnThreshold { threshold } => {
                    home.remote[gpu] += 1;
                    if home.remote[gpu] == threshold.max(1) {
                        let from = home.owner;
                        home.owner = gpu;
                        home.remote = [0; MAX_GPUS];
                        if home.replicas != 0 {
                            self.stats.replica_invalidations +=
                                u64::from(home.replicas.count_ones());
                            home.replicas = 0;
                        }
                        self.stats.migrations += 1;
                        self.stats.migrated_bytes += LARGE_PAGE_SIZE;
                        return PlacementOutcome::Migrate { from };
                    }
                    PlacementOutcome::Remote { owner: home.owner }
                }
                PlacementPolicy::ReplicateReadOnly if !store && !home.written => {
                    home.replicas |= 1 << gpu;
                    self.stats.replications += 1;
                    self.stats.replicated_bytes += LARGE_PAGE_SIZE;
                    PlacementOutcome::Replicate { from: home.owner }
                }
                _ => PlacementOutcome::Remote { owner: home.owner },
            }
        }

        fn replicas(&self, asid: AppId, lpn: LargePageNum) -> Vec<usize> {
            match self.homes.get(&(asid, lpn)) {
                Some(h) => (0..self.gpus).filter(|&g| h.replicas & (1 << g) != 0).collect(),
                None => Vec::new(),
            }
        }
    }

    /// The table-backed map and [`BTreePlacement`] through the same seeded
    /// calls: `access` (loads and stores), `remove`, `owner`, `replicas`
    /// and `placed`, over three ASIDs and a region pool small enough to
    /// revisit and large enough to grow the table past its 64 slots.
    #[test]
    fn table_placement_matches_btree_reference() {
        let policies = [
            PlacementPolicy::FirstTouch,
            PlacementPolicy::ReplicateReadOnly,
            PlacementPolicy::MigrateOnThreshold { threshold: 3 },
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            for gpus in [2, 4, 8] {
                let mut rng = mosaic_sim_core::SimRng::from_seed(0x91ACE + (p * 10 + gpus) as u64);
                let mut map = PlacementMap::new(gpus, policy);
                let mut reference = BTreePlacement {
                    gpus,
                    policy,
                    homes: Default::default(),
                    stats: PlacementStats::default(),
                };
                for step in 0..20_000 {
                    let asid = AppId(rng.below(3) as u16);
                    let lpn = lpn(rng.below(150));
                    let what = format!("{policy:?} on {gpus} GPUs, step {step}");
                    match rng.below(20) {
                        0 => {
                            map.remove(asid, lpn);
                            reference.homes.remove(&(asid, lpn));
                        }
                        1 => assert_eq!(
                            map.replicas(asid, lpn),
                            reference.replicas(asid, lpn),
                            "{what}: replicas"
                        ),
                        2 => assert_eq!(
                            map.owner(asid, lpn),
                            reference.homes.get(&(asid, lpn)).map(|h| h.owner),
                            "{what}: owner"
                        ),
                        _ => {
                            let gpu = rng.below(gpus as u64) as usize;
                            let store = rng.chance(0.2);
                            assert_eq!(
                                map.access(asid, lpn, gpu, store),
                                reference.access(asid, lpn, gpu, store),
                                "{what}: access"
                            );
                        }
                    }
                    if step % 500 == 0 {
                        let placed: Vec<_> = map.placed().collect();
                        let want: Vec<_> =
                            reference.homes.iter().map(|(&(a, l), h)| (a, l, h.owner)).collect();
                        assert_eq!(placed, want, "{what}: placed, in key order");
                    }
                }
                assert_eq!(map.stats(), &reference.stats, "{policy:?} on {gpus} GPUs: stats");
                assert_eq!(map.regions(), reference.homes.len());
                assert!(map.regions() > 64, "the table grew ({} regions)", map.regions());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_fleet_panics() {
        let _ = PlacementMap::new(MAX_GPUS + 1, PlacementPolicy::FirstTouch);
    }
}
