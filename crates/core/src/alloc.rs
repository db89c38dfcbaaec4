//! Eager-writing allocation: pick a free location near the disk head.
//!
//! Two strategies from the paper are implemented:
//!
//! * **Greedy** (§2.1/§2.2) — take the free sector (or aligned block)
//!   reachable in minimum positioning time, searching the current cylinder
//!   first and widening outward; the Figure 1 simulation uses the
//!   bidirectional variant, the VLD the one-directional sweep of §4.2
//!   ("cylinder seeks only in one direction until it reaches the last
//!   cylinder"), which keeps the head from being trapped in full regions.
//! * **Threshold fill** (§2.3/§4.2) — when the compactor keeps a pool of
//!   empty tracks, fill the current empty track only up to a threshold
//!   (75 % in the paper's experiments), then move on; fall back to greedy
//!   once the pool is exhausted.
//!
//! All cost ranking uses the exact mechanical model via
//! [`disksim::Disk::position_cost`], so the allocator is as informed as
//! firmware running inside the drive — precisely the paper's premise.

use crate::freemap::FreeMap;
use disksim::{CylinderPricer, Disk, Metrics, ServiceTime, TrackPricer};

/// Which greedy-search implementation answers allocation queries. Both
/// provably pick the same sector; they differ only in how much work they do
/// to find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Best-first over the [`FreeMap::frontier`] with early exit: stop at
    /// the first candidate whose exact cost meets its frontier lower bound.
    Fast,
    /// The naive exhaustive oracle: price every reachable slot, take the
    /// `min_by_key`.
    Reference,
}

/// A chosen allocation target and its predicted positioning cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Cylinder of the chosen location.
    pub cyl: u32,
    /// Track (head) of the chosen location.
    pub track: u32,
    /// First sector of the chosen location.
    pub sector: u32,
    /// Predicted seek + head switch + rotation to reach it.
    pub cost: ServiceTime,
}

/// Allocator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocConfig {
    /// Data-block alignment in sectors (8 for the paper's 4 KB blocks).
    pub block_sectors: u32,
    /// Track-fill threshold: stop filling an empty track once its
    /// utilisation reaches this fraction (paper: 0.75).
    pub threshold: f64,
    /// Use the one-directional cylinder sweep (the VLD behaviour). When
    /// false, greedy searches both directions — the Figure 1 idealisation.
    pub one_way_sweep: bool,
    /// Prefer filling compactor-produced empty tracks to the threshold
    /// before going greedy.
    pub threshold_fill: bool,
}

impl Default for AllocConfig {
    fn default() -> Self {
        Self {
            block_sectors: 8,
            threshold: 0.75,
            one_way_sweep: true,
            threshold_fill: true,
        }
    }
}

/// Stateful eager allocator.
#[derive(Debug, Clone)]
pub struct EagerAllocator {
    cfg: AllocConfig,
    /// Which search implementation answers queries (identical answers).
    mode: AllocMode,
    /// The empty track currently being filled under the threshold policy.
    fill_track: Option<(u32, u32)>,
    /// A track allocations must avoid (set while the compactor empties it,
    /// so fresh writes don't re-pollute the victim).
    avoid: Option<(u32, u32)>,
    /// Metrics handle (disabled by default). Counts fast-path vs. fallback
    /// decisions; never influences them.
    metrics: Metrics,
}

/// Plain-data image of an allocator's mutable state (`Send + Sync`), used
/// by the snapshot/fork engine. The metrics handle is deliberately not
/// captured: a restored allocator starts detached.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorState {
    cfg: AllocConfig,
    mode: AllocMode,
    fill_track: Option<(u32, u32)>,
    avoid: Option<(u32, u32)>,
}

impl EagerAllocator {
    /// Create an allocator with the given configuration: the exhaustive
    /// [`AllocMode::Reference`] search under reference mode
    /// ([`disksim::reference_mode`]), [`AllocMode::Fast`] otherwise.
    pub fn new(cfg: AllocConfig) -> Self {
        let mode = if disksim::reference_mode() {
            AllocMode::Reference
        } else {
            AllocMode::Fast
        };
        Self::with_mode(cfg, mode)
    }

    /// Create an allocator pinned to an explicit search mode, regardless of
    /// reference mode (equivalence tests and microbenchmarks compare the
    /// modes side by side within one process).
    pub fn with_mode(cfg: AllocConfig, mode: AllocMode) -> Self {
        Self {
            cfg,
            mode,
            fill_track: None,
            avoid: None,
            metrics: Metrics::disabled(),
        }
    }

    /// The search mode in force.
    pub fn mode(&self) -> AllocMode {
        self.mode
    }

    /// Capture the mutable state for a later [`EagerAllocator::from_state`].
    pub fn state(&self) -> AllocatorState {
        AllocatorState {
            cfg: self.cfg,
            mode: self.mode,
            fill_track: self.fill_track,
            avoid: self.avoid,
        }
    }

    /// Rebuild an allocator from captured state (metrics detached).
    pub fn from_state(state: &AllocatorState) -> Self {
        Self {
            cfg: state.cfg,
            mode: state.mode,
            fill_track: state.fill_track,
            avoid: state.avoid,
            metrics: Metrics::disabled(),
        }
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach). The
    /// allocator records `alloc.fast_path` / `alloc.greedy_fallback` block
    /// placements; its decisions are unaffected.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Forbid allocations on one track (compaction victim); `None` clears.
    pub fn set_avoid(&mut self, track: Option<(u32, u32)>) {
        self.avoid = track;
        if self.avoid.is_some() && self.fill_track == self.avoid {
            self.fill_track = None;
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocConfig {
        &self.cfg
    }

    /// Choose a free aligned data block near the head. Returns `None` only
    /// when no aligned block is free anywhere.
    pub fn find_block(&mut self, disk: &Disk, free: &FreeMap) -> Option<Candidate> {
        let align = self.cfg.block_sectors;
        if self.cfg.threshold_fill {
            if let Some(c) = self.fill_candidate(disk, free, align) {
                self.metrics.inc("alloc.fast_path");
                return Some(c);
            }
        }
        self.metrics.inc("alloc.greedy_fallback");
        self.greedy(disk, free, align)
    }

    /// Choose a single free sector near the head (for map-sector appends).
    /// Always greedy: the log entry goes wherever is cheapest right now.
    pub fn find_sector(&mut self, disk: &Disk, free: &FreeMap) -> Option<Candidate> {
        self.greedy(disk, free, 1)
    }

    /// Threshold-fill step: keep writing into the current fill track until
    /// it reaches the threshold, then grab the nearest empty track.
    fn fill_candidate(&mut self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        // Keep filling the current track while it is under the threshold and
        // still has room for an aligned slot.
        if let Some((c, t)) = self.fill_track {
            if free.track_utilization(c, t) < self.cfg.threshold {
                if let Some(cand) = self.track_candidate(disk, free, c, t, align) {
                    return Some(cand);
                }
            }
            self.fill_track = None;
        }
        // Grab the nearest empty track from the compactor's pool; if the
        // pool is dry, the caller falls back to greedy.
        let next = free.nearest_empty_track(disk.head().cyl)?;
        if Some(next) == self.avoid {
            return None;
        }
        self.fill_track = Some(next);
        self.track_candidate(disk, free, next.0, next.1, align)
    }

    /// Price one track with no incumbent bound, through the primitive the
    /// allocator's mode selects (the indexed word-scan, or the naive linear
    /// scan in reference mode — same answer by the equivalence tests).
    fn track_candidate(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        track: u32,
        align: u32,
    ) -> Option<Candidate> {
        match self.mode {
            AllocMode::Reference => {
                reference::best_in_track(disk, free, self.avoid, cyl, track, align)
            }
            AllocMode::Fast => {
                self.best_in_track(disk, free, cyl, track, align, u64::MAX)
            }
        }
    }

    /// Cheapest candidate on one track: the first free (aligned) slot in
    /// rotational encounter order from the head's arrival position.
    ///
    /// `incumbent_ns` is the cost of the best candidate found so far: every
    /// sector here costs at least the seek/head-switch to reach the track,
    /// so when that lower bound already matches or exceeds the incumbent the
    /// track is discarded without scanning it or pricing anything exactly.
    /// (Ties keep the incumbent, matching `min_by_key`'s first-wins rule.)
    fn best_in_track(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        track: u32,
        align: u32,
        incumbent_ns: u64,
    ) -> Option<Candidate> {
        if disk.reposition_lower_bound_ns(cyl, track) >= incumbent_ns {
            return None;
        }
        self.price_track(disk, free, cyl, track, align)
    }

    /// Price one track with no lower-bound prune: the first free (aligned)
    /// slot in rotational encounter order from the head's arrival position.
    /// The best-first frontier consumers call this directly — the frontier
    /// already computed each unit's exact lower bound, and its ordered
    /// early-exit subsumes the per-track prune, so recomputing
    /// `reposition_lower_bound_ns` here would be pure double work. The
    /// one-shot [`Disk::track_pricer`] plan does the seek/arrival
    /// trigonometry once instead of once per disk query.
    #[inline]
    fn price_track(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        track: u32,
        align: u32,
    ) -> Option<Candidate> {
        let plan = disk.track_pricer(cyl, track).ok()?;
        self.price_planned(disk, free, cyl, track, align, &plan)
    }

    /// Price one track through an already-built [`TrackPricer`] plan: scan
    /// the free map from the plan's arrival sector, cost the hit with the
    /// plan's cached angular state.
    #[inline]
    fn price_planned(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        track: u32,
        align: u32,
        plan: &TrackPricer,
    ) -> Option<Candidate> {
        if self.avoid == Some((cyl, track)) {
            return None;
        }
        let sector = free.first_aligned_from(cyl, track, plan.arrival, align)?;
        let cost = disk.priced_cost(plan, sector);
        Some(Candidate {
            cyl,
            track,
            sector,
            cost,
        })
    }

    /// Cheapest candidate within one cylinder (all tracks considered),
    /// keeping only candidates strictly cheaper than `incumbent_ns`. The
    /// per-cylinder summary counts reject cylinders with no usable space in
    /// O(1), and the running best feeds the per-track lower-bound prune.
    fn best_in_cylinder(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        align: u32,
        incumbent_ns: u64,
    ) -> Option<Candidate> {
        if !free.cylinder_has_candidate(cyl, align) {
            return None;
        }
        let tracks = free.tracks_in_cylinder();
        let mut best: Option<Candidate> = None;
        let mut bound = incumbent_ns;
        for t in 0..tracks {
            if let Some(c) = self.best_in_track(disk, free, cyl, t, align, bound) {
                // The prune used a lower bound; the exact cost can still
                // lose to the incumbent. Replace only on strict improvement
                // (first-wins on ties, like the unpruned `min_by_key`).
                if c.cost.total_ns() < bound {
                    bound = c.cost.total_ns();
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Greedy search: current cylinder first, then widening. One-way mode
    /// walks forward (wrapping) and takes the first cylinder with space;
    /// two-way mode alternates ±d and stops once no unvisited location can
    /// beat the best candidate found. Dispatches on the allocator's mode;
    /// both implementations return the identical candidate.
    fn greedy(&mut self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        match self.mode {
            AllocMode::Reference => {
                reference::greedy(disk, free, self.avoid, align, self.cfg.one_way_sweep)
            }
            AllocMode::Fast => {
                if self.cfg.one_way_sweep {
                    self.greedy_fast_one_way(disk, free, align)
                } else {
                    self.greedy_fast_two_way(disk, free, align)
                }
            }
        }
    }

    /// Best-first two-way search over the [`FreeMap::frontier`].
    ///
    /// Tracks arrive in nondecreasing order of their exact repositioning
    /// lower bound, so the loop stops at the first unit whose bound
    /// strictly exceeds the incumbent's exact cost: every unvisited track
    /// can then only yield strictly costlier candidates. Units whose bound
    /// *equals* the incumbent's cost are still priced — they can tie, and a
    /// tie is won by the track the reference scan visits first, which is
    /// what the lexicographic `(cost, rank)` replacement below decides.
    /// Hence the result equals the reference `min_by_key` pick exactly.
    fn greedy_fast_two_way(&self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        let head = disk.head();
        let switch = disk.spec().mech.head_switch_ns;
        let mut best: Option<(Candidate, u64, u64)> = None; // (cand, total_ns, rank)
        // The frontier drains each cylinder's tracks contiguously, so one
        // cylinder-wide plan (seek + arrival-angle divisions) serves every
        // unit of the group; only the per-track skew is new work.
        let mut cached: Option<(u32, CylinderPricer)> = None;
        for unit in free.frontier(head.cyl, head.track, switch, |d| disk.seek_ns(d), align) {
            if let Some((_, total, _)) = &best {
                if unit.lower_bound_ns > *total {
                    break;
                }
            }
            // Price with no per-track prune: the frontier's ordered bounds
            // make the `break` above the complete prune — any unit that
            // survives it has `lower_bound_ns <= incumbent`, exactly the
            // units a `>= incumbent + 1` prune would keep (equal-cost,
            // lower-rank ties included, resolved by the rank comparison
            // below).
            let c = if unit.cyl == head.cyl && unit.track == head.track {
                self.price_track(disk, free, unit.cyl, unit.track, align)
            } else {
                let plan = match &cached {
                    Some((pc, p)) if *pc == unit.cyl => *p,
                    _ => match disk.cylinder_pricer(unit.cyl) {
                        Ok(p) => {
                            cached = Some((unit.cyl, p));
                            p
                        }
                        Err(_) => continue,
                    },
                };
                let tp = disk.track_pricer_from(&plan, unit.track);
                self.price_planned(disk, free, unit.cyl, unit.track, align, &tp)
            };
            let Some(c) = c else {
                continue;
            };
            let total = c.cost.total_ns();
            let better = match &best {
                None => true,
                Some((_, bt, rank)) => total < *bt || (total == *bt && unit.rank < *rank),
            };
            if better {
                best = Some((c, total, unit.rank));
            }
        }
        best.map(|(c, _, _)| c)
    }

    /// Best-first one-way search: the cylinder choice is sweep order (first
    /// cylinder with any candidate, exactly as the reference behaves), but
    /// within the head's own cylinder the head track (lower bound 0) is
    /// priced first and wins outright when its candidate costs less than a
    /// head switch — the common mostly-empty-track case prices one track
    /// instead of scanning the cylinder.
    fn greedy_fast_one_way(&self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        let cyls = free.cylinders();
        let head = disk.head();
        for w in 0..cyls {
            let c = (head.cyl + w) % cyls;
            if !free.cylinder_has_candidate(c, align) {
                continue;
            }
            let cand = if c == head.cyl {
                self.best_first_in_head_cylinder(disk, free, align)
            } else {
                self.best_in_cylinder(disk, free, c, align, u64::MAX)
            };
            if cand.is_some() {
                return cand;
            }
        }
        None
    }

    /// Best candidate within the head's cylinder, head track first. Ties
    /// across tracks resolve to the lowest track index (the reference
    /// scans tracks in order with first-wins `min_by_key`), so replacement
    /// is lexicographic on `(cost, track)` and the early exits are strict.
    fn best_first_in_head_cylinder(
        &self,
        disk: &Disk,
        free: &FreeMap,
        align: u32,
    ) -> Option<Candidate> {
        let head = disk.head();
        let switch = disk.spec().mech.head_switch_ns;
        let tracks = free.tracks_in_cylinder();
        let mut best: Option<Candidate> = None;
        if let Some(c) = self.price_track(disk, free, head.cyl, head.track, align) {
            if c.cost.total_ns() < switch {
                // Every other track costs at least a head switch: strictly
                // worse, and a tie is impossible.
                return Some(c);
            }
            best = Some(c);
        }
        // One cylinder-wide plan covers every non-head track (all reached
        // with the same head switch).
        let Ok(plan) = disk.cylinder_pricer(head.cyl) else {
            return best;
        };
        for t in 0..tracks {
            if t == head.track {
                continue;
            }
            if let Some(b) = &best {
                if b.cost.total_ns() < switch {
                    break;
                }
            }
            // No per-track prune: every non-head track's lower bound is
            // exactly the head-switch cost, and the `break` above already
            // exits once the incumbent beats a head switch — the prune
            // could never fire beyond it.
            let tp = disk.track_pricer_from(&plan, t);
            if let Some(c) = self.price_planned(disk, free, head.cyl, t, align, &tp) {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        c.cost.total_ns() < b.cost.total_ns()
                            || (c.cost.total_ns() == b.cost.total_ns() && t < b.track)
                    }
                };
                if better {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Forget the current fill track (e.g. after a compaction pass changed
    /// the landscape).
    pub fn reset_fill(&mut self) {
        self.fill_track = None;
    }

    /// The empty track currently being filled, if the threshold policy has
    /// one in hand. The compactor avoids choosing it as a victim.
    pub fn fill_track(&self) -> Option<(u32, u32)> {
        self.fill_track
    }
}

/// The pre-index exhaustive greedy search, retained as the oracle the
/// fast path is verified against: it prices every reachable free
/// slot with the exact mechanical model and never consults the summary
/// counts, lower bounds or word-level scans. Equivalence tests (and the
/// microbenchmarks' before/after comparison) call these directly.
pub mod reference {
    use super::Candidate;
    use crate::freemap::FreeMap;
    use disksim::Disk;

    /// Naive per-track candidate: linear free-list scan plus an exact
    /// `position_cost` for the first slot in rotational encounter order.
    pub fn best_in_track(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        cyl: u32,
        track: u32,
        align: u32,
    ) -> Option<Candidate> {
        if avoid == Some((cyl, track)) {
            return None;
        }
        let arrival = disk.arrival_sector(cyl, track).ok()?;
        let sector = if align == 1 {
            free.free_sectors_from(cyl, track, arrival).next()?
        } else {
            free.free_aligned_from(cyl, track, arrival, align)?
        };
        let cost = disk.position_cost(cyl, track, sector).ok()?;
        Some(Candidate {
            cyl,
            track,
            sector,
            cost,
        })
    }

    /// Naive per-cylinder candidate: price every track, take the min.
    pub fn best_in_cylinder(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        cyl: u32,
        align: u32,
    ) -> Option<Candidate> {
        let tracks = free.tracks_in_cylinder();
        (0..tracks)
            .filter_map(|t| best_in_track(disk, free, avoid, cyl, t, align))
            .min_by_key(|c| c.cost.total_ns())
    }

    /// Naive greedy search, both sweep modes, exactly as the allocator
    /// behaved before the hierarchical index and cost pruning landed.
    pub fn greedy(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        align: u32,
        one_way_sweep: bool,
    ) -> Option<Candidate> {
        let cyls = free.cylinders();
        let cur = disk.head().cyl;
        if one_way_sweep {
            for w in 0..cyls {
                let c = (cur + w) % cyls;
                if let Some(cand) = best_in_cylinder(disk, free, avoid, c, align) {
                    return Some(cand);
                }
            }
            None
        } else {
            let mut best: Option<Candidate> = None;
            for d in 0..cyls {
                if let Some(b) = &best {
                    if b.cost.total_ns() < disk.spec().mech.seek_ns(d) {
                        break;
                    }
                }
                for c in [cur.checked_sub(d), (cur + d < cyls).then_some(cur + d)]
                    .into_iter()
                    .flatten()
                {
                    if let Some(cand) = best_in_cylinder(disk, free, avoid, c, align) {
                        if best.is_none()
                            || cand.cost.total_ns()
                                < best.as_ref().map(|b| b.cost.total_ns()).unwrap_or(u64::MAX)
                        {
                            best = Some(cand);
                        }
                    }
                    if d == 0 {
                        break;
                    }
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, SimClock};

    fn setup() -> (Disk, FreeMap) {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0; // internal (in-drive) operation
        let disk = Disk::new(spec, SimClock::new());
        let free = FreeMap::new(&disk.spec().geometry);
        (disk, free)
    }

    fn greedy_alloc(one_way: bool) -> EagerAllocator {
        EagerAllocator::new(AllocConfig {
            one_way_sweep: one_way,
            threshold_fill: false,
            ..AllocConfig::default()
        })
    }

    #[test]
    fn empty_disk_block_is_nearly_free_to_reach() {
        let (disk, free) = setup();
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        // On an empty disk the very next aligned slot on the current track
        // should win: no seek, no switch, under one block of rotation.
        assert_eq!(c.cost.seek_ns, 0);
        assert_eq!(c.cost.head_switch_ns, 0);
        assert!(c.cost.rotation_ns <= 8 * disk.spec().mech.sector_ns(72));
    }

    #[test]
    fn chosen_block_is_globally_optimal_two_way() {
        let (disk, mut free) = setup();
        // Occupy most of the current track to force a real decision.
        free.allocate(0, 0, 0, 64).unwrap();
        let mut a = greedy_alloc(false);
        let c = a.find_block(&disk, &free).unwrap();
        // Exhaustively verify optimality over every free aligned block.
        let mut best = u64::MAX;
        for cyl in 0..36 {
            for t in 0..19 {
                for slot in 0..(72 / 8) {
                    let s = slot * 8;
                    if free.run_free(cyl, t, s, 8) {
                        let cost = disk.position_cost(cyl, t, s).unwrap().total_ns();
                        best = best.min(cost);
                    }
                }
            }
        }
        assert_eq!(c.cost.total_ns(), best);
    }

    #[test]
    fn single_sector_allocation_prefers_current_track() {
        let (disk, free) = setup();
        let mut a = greedy_alloc(true);
        let c = a.find_sector(&disk, &free).unwrap();
        let h = disk.head();
        assert_eq!((c.cyl, c.track), (h.cyl, h.track));
        assert!(c.cost.rotation_ns <= 2 * disk.spec().mech.sector_ns(72));
    }

    #[test]
    fn one_way_sweep_skips_full_cylinders_forward() {
        let (mut disk, mut free) = setup();
        disk.seek_to(5, 0).unwrap();
        // Fill cylinders 5..8 completely.
        for cyl in 5..8 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 72).unwrap();
            }
        }
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        assert_eq!(c.cyl, 8, "sweep must move forward, not back to cylinder 4");
    }

    #[test]
    fn one_way_sweep_wraps_at_disk_end() {
        let (mut disk, mut free) = setup();
        disk.seek_to(35, 0).unwrap();
        for t in 0..19 {
            free.allocate(35, t, 0, 72).unwrap();
        }
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        assert_eq!(c.cyl, 0);
    }

    #[test]
    fn exhausted_disk_returns_none() {
        let (disk, mut free) = setup();
        for cyl in 0..36 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 72).unwrap();
            }
        }
        let mut a = greedy_alloc(true);
        assert!(a.find_block(&disk, &free).is_none());
        assert!(a.find_sector(&disk, &free).is_none());
        // A single free sector is enough for find_sector but not find_block.
        free.release(10, 3, 17, 1).unwrap();
        assert!(a.find_sector(&disk, &free).is_some());
        assert!(a.find_block(&disk, &free).is_none());
    }

    #[test]
    fn threshold_fill_sticks_to_one_track_until_threshold() {
        let (disk, mut free) = setup();
        let mut a = EagerAllocator::new(AllocConfig::default());
        // 72 sectors/track, 9 blocks; 75% threshold -> 6 blocks and change.
        let mut tracks_used = std::collections::HashSet::new();
        for _ in 0..6 {
            let c = a.find_block(&disk, &free).unwrap();
            free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
            tracks_used.insert((c.cyl, c.track));
        }
        assert_eq!(tracks_used.len(), 1, "filled more than one track early");
        // Utilization now 48/72 = 0.667 < 0.75: next block still same track.
        let c = a.find_block(&disk, &free).unwrap();
        assert!(tracks_used.contains(&(c.cyl, c.track)));
        free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
        // 56/72 = 0.778 >= 0.75: the policy must switch tracks now.
        let c = a.find_block(&disk, &free).unwrap();
        assert!(!tracks_used.contains(&(c.cyl, c.track)));
    }

    #[test]
    fn threshold_fill_falls_back_to_greedy_without_empty_tracks() {
        let (disk, mut free) = setup();
        // Put one sector on every track: no empty tracks remain.
        for cyl in 0..36 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 1).unwrap();
            }
        }
        let mut a = EagerAllocator::new(AllocConfig::default());
        let c = a.find_block(&disk, &free).unwrap();
        assert!(free.run_free(c.cyl, c.track, c.sector, 8));
    }

    /// The tentpole's safety net: across random fill patterns, head
    /// positions, rotation phases, disks, sweep modes, alignments and avoid
    /// tracks, both allocator modes — best-first indexed and naive
    /// reference — must choose *exactly* the same candidate: same
    /// sector, same predicted cost. All searches resolve ties to the
    /// reference scan's first-wins order, so equality is full, not just
    /// cost equality.
    #[test]
    fn allocator_modes_choose_identically() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for spec0 in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let mut spec = spec0;
            spec.command_overhead_ns = 0;
            let g = spec.geometry.clone();
            let (cyls, tracks) = (g.cylinders(), g.tracks_per_cylinder());
            let mut rng = StdRng::seed_from_u64(0xA11C ^ cyls as u64);
            for &util in &[0.05f64, 0.45, 0.85, 0.97] {
                for one_way in [true, false] {
                    let clock = SimClock::new();
                    let mut disk = Disk::new(spec.clone(), clock.clone());
                    let mut free = FreeMap::new(&g);
                    // Random per-sector occupancy at the target utilisation,
                    // plus (sometimes) a band of completely full cylinders so
                    // the O(1) cylinder skip actually triggers.
                    let full_band = if rng.gen_bool(0.5) {
                        let w = rng.gen_range(1..cyls.max(2));
                        let s = rng.gen_range(0..cyls);
                        Some((s, w))
                    } else {
                        None
                    };
                    for cyl in 0..cyls {
                        let in_band =
                            full_band.is_some_and(|(s, w)| (cyl + cyls - s) % cyls < w);
                        for t in 0..tracks {
                            let spt = g.sectors_per_track(cyl).unwrap();
                            for sec in 0..spt {
                                if in_band || rng.gen_bool(util) {
                                    free.allocate(cyl, t, sec, 1).unwrap();
                                }
                            }
                        }
                    }
                    let avoid = rng
                        .gen_bool(0.5)
                        .then(|| (rng.gen_range(0..cyls), rng.gen_range(0..tracks)));
                    for _ in 0..3 {
                        disk.seek_to(rng.gen_range(0..cyls), rng.gen_range(0..tracks))
                            .unwrap();
                        clock.advance(rng.gen_range(0..spec.mech.revolution_ns()));
                        let cfg = AllocConfig {
                            one_way_sweep: one_way,
                            threshold_fill: false,
                            ..AllocConfig::default()
                        };
                        for align in [8u32, 1] {
                            let picks: Vec<Option<Candidate>> =
                                [AllocMode::Fast, AllocMode::Reference]
                                    .into_iter()
                                    .map(|mode| {
                                        let mut a = EagerAllocator::with_mode(cfg, mode);
                                        a.set_avoid(avoid);
                                        if align == 8 {
                                            a.find_block(&disk, &free)
                                        } else {
                                            a.find_sector(&disk, &free)
                                        }
                                    })
                                    .collect();
                            assert!(
                                picks[0] == picks[1],
                                "divergence: cyls={cyls} util={util} one_way={one_way} \
                                 align={align} avoid={avoid:?} head={:?} \
                                 fast={:?} reference={:?}",
                                disk.head(),
                                picks[0],
                                picks[1]
                            );
                        }
                    }
                }
            }
        }
    }

    /// Hand-built equal-cost ties: every mode must resolve them to the
    /// track the reference scan visits first.
    #[test]
    fn tie_breaking_matches_reference_scan_order() {
        let modes = [AllocMode::Fast, AllocMode::Reference];
        // Mirrored cylinders: the head sits on cylinder 10 with its own
        // cylinder (and everything within distance 2) full; cylinders 8 and
        // 12 each keep one identical free block. Seek, arrival sector and
        // rotation are mirror-equal, so the costs tie exactly; the
        // reference scan visits `cur - d` before `cur + d`.
        for one_way in [false, true] {
            let (mut disk, mut free) = setup();
            disk.seek_to(10, 3).unwrap();
            for cyl in 0..36 {
                for t in 0..19 {
                    free.allocate(cyl, t, 0, 72).unwrap();
                }
            }
            free.release(8, 3, 16, 8).unwrap();
            free.release(12, 3, 16, 8).unwrap();
            let picks: Vec<Candidate> = modes
                .iter()
                .map(|&m| {
                    let mut a = EagerAllocator::with_mode(
                        AllocConfig {
                            one_way_sweep: one_way,
                            threshold_fill: false,
                            ..AllocConfig::default()
                        },
                        m,
                    );
                    a.find_block(&disk, &free).unwrap()
                })
                .collect();
            assert_eq!(picks[0], picks[1]);
            if !one_way {
                assert_eq!(
                    (picks[0].cyl, picks[0].track),
                    (8, 3),
                    "two-way tie must go to the lower cylinder (visited first)"
                );
            }
        }
        // Same-cylinder track tie: head on track 15 of cylinder 0, one free
        // block each on tracks 2 and 10, placed at the *same angle* (the
        // HP's track skew is 13 of 72 sectors, so tracks 8 apart with start
        // sectors 32 apart coincide: 40 + 13·2 ≡ 8 + 13·10 (mod 72)). Head
        // switch and rotation are then equal — first-wins goes to the
        // lower track index.
        let (mut disk, mut free) = setup();
        disk.seek_to(0, 15).unwrap();
        for cyl in 0..36 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 72).unwrap();
            }
        }
        free.release(0, 2, 40, 8).unwrap();
        free.release(0, 10, 8, 8).unwrap();
        for one_way in [false, true] {
            let picks: Vec<Candidate> = modes
                .iter()
                .map(|&m| {
                    let mut a = EagerAllocator::with_mode(
                        AllocConfig {
                            one_way_sweep: one_way,
                            threshold_fill: false,
                            ..AllocConfig::default()
                        },
                        m,
                    );
                    a.find_block(&disk, &free).unwrap()
                })
                .collect();
            assert_eq!(picks[0], picks[1], "one_way={one_way}");
            assert_eq!((picks[0].cyl, picks[0].track), (0, 2), "one_way={one_way}");
        }
    }

    #[test]
    fn reset_fill_releases_track() {
        let (disk, mut free) = setup();
        let mut a = EagerAllocator::new(AllocConfig::default());
        let c = a.find_block(&disk, &free).unwrap();
        free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
        a.reset_fill();
        // Still works after the reset.
        assert!(a.find_block(&disk, &free).is_some());
    }
}
