//! The stateful simulated disk.
//!
//! [`Disk`] combines a [`DiskSpec`] with a virtual clock, a sparse sector
//! store, the arm/head state and a track read-ahead buffer. Every timed
//! operation returns the [`ServiceTime`] it consumed and advances the shared
//! clock by exactly that amount.
//!
//! Rotational position is not stored: the platters spin continuously, so the
//! sector under the head is a pure function of the clock (plus per-track
//! skew). This makes timing exact across arbitrarily interleaved operations,
//! including the eager-writing previews the virtual log uses to choose the
//! cheapest free sector.

use std::sync::Arc;

use obs::{Metrics, OpKind, Spans, TraceEvent, Tracer};

use crate::cache::{CachePolicy, TrackCache};
use crate::clock::SimClock;
use crate::error::{DiskError, Result};
use crate::geometry::PhysAddr;
use crate::mech::SeekTable;
use crate::service::ServiceTime;
use crate::spec::DiskSpec;
use crate::trackbuf::TrackBuf;
use crate::SECTOR_BYTES;

/// Where the head is right now: the track it is on, and the sector slot
/// currently passing beneath it (in logical sector numbering, i.e. with the
/// track's skew already removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadPosition {
    /// Cylinder the arm is parked over.
    pub cyl: u32,
    /// Selected head (track within the cylinder).
    pub track: u32,
    /// Logical sector number currently under the head on that track.
    pub sector: u32,
}

/// Precomputed repositioning plan for pricing candidate sectors on one
/// track at one instant — built by [`Disk::track_pricer`] (or specialised
/// from a [`CylinderPricer`]), consumed by [`Disk::priced_cost`]. Every
/// division behind `sector_under_head` / `rotational_wait_ns` /
/// `sector_ns` is done once here; pricing a sector is then adds, compares
/// and one multiply. Stale as soon as the head moves or the clock
/// advances.
#[derive(Debug, Clone, Copy)]
pub struct TrackPricer {
    /// Sectors per track on the plan's cylinder.
    spt: u32,
    /// Tabulated seek component of the reposition.
    seek_ns: u64,
    /// Head-switch component (0 when the plan's track is the head's own).
    head_switch_ns: u64,
    /// One revolution, and the time one sector takes to pass the head.
    rev_ns: u64,
    sector_ns: u64,
    /// Angular position of the head within the revolution at arrival time.
    in_rev: u64,
    /// The track's angular skew, already reduced modulo `spt`.
    skew: u32,
    /// First logical sector whose start passes under the head after the
    /// reposition — the seed for a rotational-encounter-order scan.
    pub arrival: u32,
}

/// The cylinder-wide part of a repositioning plan: every track of one
/// cylinder shares the same seek, the same arrival instant and therefore
/// the same angular arithmetic — only the per-track skew differs. Built by
/// [`Disk::cylinder_pricer`], specialised per track with
/// [`Disk::track_pricer_from`]. The lone exception is the head's own track
/// on the head's own cylinder (no head switch): price it with
/// [`Disk::track_pricer`] directly.
#[derive(Debug, Clone, Copy)]
pub struct CylinderPricer {
    cyl: u32,
    spt: u32,
    seek_ns: u64,
    head_switch_ns: u64,
    rev_ns: u64,
    sector_ns: u64,
    in_rev: u64,
    /// Physical slot whose boundary arrives first (already advanced past
    /// the partially-gone sector).
    slot_plus1: u32,
}

/// Cumulative operation counters for a disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Number of read commands serviced.
    pub reads: u64,
    /// Number of write commands serviced.
    pub writes: u64,
    /// Sectors transferred by reads (including buffer hits).
    pub sectors_read: u64,
    /// Sectors transferred by writes.
    pub sectors_written: u64,
    /// Total simulated busy time, by component.
    pub busy: ServiceTime,
}

/// Sparse per-track sector store; tracks are materialised (zero-filled) on
/// first touch so full-size multi-gigabyte disks cost nothing until used.
///
/// Layout is a flat slot table indexed `cyl * tracks_per_cylinder + track`
/// (the tracks-per-cylinder count is uniform across the disk, only the
/// sectors per track vary by zone), so the per-access cost is one bounds-
/// checked index instead of a hash probe — this sits under every simulated
/// sector transfer. Unmaterialised tracks stay `None`, which preserves the
/// sparse-image semantics: a slot's buffer is allocated (zero-filled, at
/// that cylinder's zone size) only on first write.
///
/// A frozen disk image flattened into one contiguous allocation: every
/// materialised track's bytes packed back-to-back in `data`, located by a
/// per-slot offset table.
///
/// This is the media layer a [`DiskSnapshot`] retains and every fork reads
/// through until it writes. Packing matters as much as sharing: a cached
/// snapshot that instead kept ~200 live track-sized `Arc` buffers peppers
/// the allocator's arena with same-sized chunks, and a few dozen retained
/// snapshots degrade *every* later track-sized allocation in the process
/// (measured: ~100× on glibc). One multi-megabyte allocation per snapshot
/// leaves the arena clean.
#[derive(Debug)]
struct BaseImage {
    /// Per-slot `(start, len)` byte range into `data`; `None` means the
    /// track was never materialised (reads as zeros).
    offsets: Vec<Option<(u32, u32)>>,
    data: Vec<u8>,
}

impl BaseImage {
    fn track(&self, slot: usize) -> Option<&[u8]> {
        self.offsets[slot].map(|(off, len)| &self.data[off as usize..(off + len) as usize])
    }
}

/// Tracks are held behind `Arc` so a snapshot of the whole store is one
/// pointer clone per materialised track; a write to a track whose buffer is
/// shared with a snapshot copies that one track first (copy-on-write at
/// track granularity — the same discipline `fscore`'s buffer cache applies
/// per block). The buffers themselves are [`TrackBuf`]s, whose allocations
/// recycle through a process-wide pool; the quick figure suite measured
/// faster with the pool than with plain buffers, at some cost in peak RSS
/// (figures in the `trackbuf` module docs).
///
/// A store restored from a [`DiskSnapshot`] starts with an empty overlay
/// on top of the snapshot's flattened [`BaseImage`]: reads fall through to
/// the base, and the first write to a track materialises a private copy in
/// the overlay — so restoring costs O(slots) pointer-sized writes no
/// matter how much media the captured workload produced.
#[derive(Debug)]
struct TrackStore {
    tracks: Vec<Option<Arc<TrackBuf>>>,
    base: Option<Arc<BaseImage>>,
    tracks_per_cyl: u32,
}

impl TrackStore {
    fn new(geometry: &crate::Geometry) -> Self {
        let tracks_per_cyl = geometry.tracks_per_cylinder();
        let slots = geometry.cylinders() as usize * tracks_per_cyl as usize;
        Self {
            tracks: vec![None; slots],
            base: None,
            tracks_per_cyl,
        }
    }

    #[inline]
    fn slot(&self, cyl: u32, track: u32) -> usize {
        cyl as usize * self.tracks_per_cyl as usize + track as usize
    }

    fn track_mut(&mut self, cyl: u32, track: u32, spt: u32) -> &mut [u8] {
        let slot = self.slot(cyl, track);
        let base = &self.base;
        let arc = self.tracks[slot].get_or_insert_with(|| {
            // First write since the fork: materialise the track in the
            // overlay, seeded from the base image if it has data there.
            Arc::new(match base.as_ref().and_then(|b| b.track(slot)) {
                Some(src) => TrackBuf::copy_of(src),
                None => TrackBuf::zeroed(spt as usize * SECTOR_BYTES),
            })
        });
        // Shared with a snapshot (or a sibling fork): `make_mut` copies this
        // one track before the first mutation so the sharers keep their
        // bytes (`TrackBuf::clone` draws the copy from the buffer pool).
        &mut *Arc::make_mut(arc)
    }

    /// The track's current bytes, overlay first, then the base image.
    fn track_bytes(&self, slot: usize) -> Option<&[u8]> {
        match &self.tracks[slot] {
            Some(t) => Some(&t[..]),
            None => self.base.as_ref().and_then(|b| b.track(slot)),
        }
    }

    fn read(&self, cyl: u32, track: u32, sector: u32, buf: &mut [u8]) {
        match self.track_bytes(self.slot(cyl, track)) {
            Some(t) => {
                let off = sector as usize * SECTOR_BYTES;
                buf.copy_from_slice(&t[off..off + buf.len()]);
            }
            None => buf.fill(0),
        }
    }

    fn write(&mut self, cyl: u32, track: u32, sector: u32, spt: u32, buf: &[u8]) {
        let t = self.track_mut(cyl, track, spt);
        let off = sector as usize * SECTOR_BYTES;
        t[off..off + buf.len()].copy_from_slice(buf);
    }
}

/// One contiguous piece of a request that fits on a single track.
#[derive(Debug, Clone, Copy)]
struct Run {
    cyl: u32,
    track: u32,
    sector: u32,
    count: u32,
    spt: u32,
}

/// The simulated drive.
#[derive(Debug)]
pub struct Disk {
    spec: DiskSpec,
    clock: SimClock,
    store: TrackStore,
    cur_cyl: u32,
    cur_track: u32,
    cache: TrackCache,
    stats: DiskStats,
    /// Precomputed seek curve (one entry per cylinder distance).
    seek: SeekTable,
    /// Optional event tracer; `None` costs a single branch per op.
    tracer: Option<Tracer>,
    /// Metrics handle; disabled by default (no-op after one branch).
    metrics: Metrics,
    /// Causal-span handle; disabled by default (no-op after one branch).
    spans: Spans,
    /// Cached "any observability sink attached?" flag, recomputed whenever
    /// a tracer/metrics/spans handle is (de)attached. Command dispatch
    /// checks this single predictable bool instead of probing all three
    /// handles, so fully-disabled tracing costs one branch per operation.
    obs_enabled: bool,
}

impl Disk {
    /// Create a disk from a spec, attached to the given clock, with the
    /// stock (conservative) read-ahead policy.
    pub fn new(spec: DiskSpec, clock: SimClock) -> Self {
        let seek = spec.mech.seek_table(spec.geometry.cylinders());
        let store = TrackStore::new(&spec.geometry);
        Self {
            spec,
            clock,
            store,
            cur_cyl: 0,
            cur_track: 0,
            cache: TrackCache::new(CachePolicy::Conservative),
            stats: DiskStats::default(),
            seek,
            tracer: None,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            obs_enabled: false,
        }
    }

    /// Recompute the cached observability flag after a handle change.
    fn refresh_obs(&mut self) {
        self.obs_enabled =
            self.tracer.is_some() || self.metrics.is_enabled() || self.spans.is_enabled();
    }

    /// Attach (or detach, with `None`) an event tracer. Every timed
    /// operation that accumulates into [`DiskStats::busy`] emits exactly
    /// one [`TraceEvent`] carrying the same [`ServiceTime`] breakdown, so
    /// the component sums of a complete trace equal the busy totals.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
        self.refresh_obs();
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
        self.refresh_obs();
    }

    /// Attach a causal-span handle (pass `Spans::disabled()` to detach).
    /// Every timed operation is attributed to the innermost span open on
    /// this handle at completion time; layers above share clones of the
    /// same handle so their spans are the attribution targets.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
        self.refresh_obs();
    }

    /// The attached span handle (disabled handles are cheap to clone).
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Record one completed operation to the span table, tracer and
    /// metrics. With every sink detached this is one predictable branch.
    #[inline]
    fn observe_op(&self, kind: OpKind, lba: u64, sectors: u32, loc: (u32, u32, u32), seek_cyls: u32, st: ServiceTime) {
        if !self.obs_enabled {
            return;
        }
        // Attribute the busy time to the innermost open span first, so the
        // trace event can be stamped with the owning span's id.
        let (span, span_kind) = self.spans.attribute(st.total_ns());
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent {
                at_ns: self.clock.now(),
                kind,
                scope: 0,
                span,
                lba,
                sectors,
                cyl: loc.0,
                track: loc.1,
                sector: loc.2,
                seek_cyls,
                overhead_ns: st.overhead_ns,
                seek_ns: st.seek_ns,
                head_switch_ns: st.head_switch_ns,
                rotation_ns: st.rotation_ns,
                transfer_ns: st.transfer_ns,
            });
        }
        if self.metrics.is_enabled() {
            match kind {
                OpKind::Read => {
                    self.metrics.inc("disk.reads");
                    self.metrics.observe("disk.read_ns", st.total_ns());
                }
                OpKind::Write => {
                    self.metrics.inc("disk.writes");
                    self.metrics.observe("disk.write_ns", st.total_ns());
                }
                OpKind::Seek | OpKind::Fault => {
                    self.metrics.inc("disk.seeks");
                    self.metrics.observe("disk.seek_ns", st.total_ns());
                }
            }
            self.metrics.observe("disk.seek_cyls", seek_cyls as u64);
            if self.spans.is_enabled() {
                // Per-kind attributed time: the counters partition the
                // disk's cumulative busy time exactly (unattributed time
                // gets its own key), so their sum equals the busy-sum.
                let (ns_key, cmd_key) = match span_kind {
                    Some(k) => (k.disk_ns_counter(), k.disk_cmds_counter()),
                    None => (
                        obs::span::UNATTRIBUTED_DISK_NS,
                        obs::span::UNATTRIBUTED_DISK_CMDS,
                    ),
                };
                self.metrics.add(ns_key, st.total_ns());
                self.metrics.inc(cmd_key);
            }
        }
    }

    /// Record the batched-run shape of one command: how many same-track
    /// contiguous runs it collapsed into a single clock event (each run's
    /// length in sectors is observed as the command is planned).
    #[inline]
    fn observe_run_count(&self, n_runs: u64) {
        if self.obs_enabled && self.metrics.is_enabled() {
            self.metrics.observe("disk.runs_per_cmd", n_runs);
        }
    }

    /// Tabulated seek time for a cylinder distance of `d` (identical to
    /// `spec().mech.seek_ns(d)`, without the per-call float work).
    #[inline]
    pub fn seek_ns(&self, d: u32) -> u64 {
        self.seek.get(d)
    }

    /// Lower bound on the positioning cost from the head's current location
    /// to *any* sector of (`cyl`, `track`): the seek / head-switch time
    /// alone, before rotation. Lets an allocator discard a whole track with
    /// one table lookup when an incumbent candidate is already cheaper.
    #[inline]
    pub fn reposition_lower_bound_ns(&self, cyl: u32, track: u32) -> u64 {
        let seek = self.seek.get(self.cur_cyl.abs_diff(cyl));
        let switch = if self.cur_cyl == cyl && self.cur_track != track {
            self.spec.mech.head_switch_ns
        } else {
            0
        };
        seek.max(switch)
    }

    /// The drive's specification.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Handle to the shared clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The current simulated instant — equivalent to `clock().now()` but
    /// without cloning the clock handle, for per-append hot paths.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now()
    }

    /// Advance the shared clock without cloning the handle.
    #[inline]
    pub fn advance_ns(&self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Read-ahead hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Switch the read-ahead buffer policy (drops buffered data).
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.cache.set_policy(policy);
    }

    /// The active read-ahead policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy()
    }

    /// Where the head is at the current instant.
    pub fn head(&self) -> HeadPosition {
        let spt = self
            .spec
            .geometry
            .sectors_per_track(self.cur_cyl)
            .expect("head is always on a valid cylinder");
        let slot = self.spec.mech.sector_under_head(self.clock.now(), spt);
        // Remove the track's skew to express the position in logical sectors.
        let skew = self.skew(self.cur_cyl, self.cur_track) % spt;
        let sector = (slot + spt - skew) % spt;
        HeadPosition {
            cyl: self.cur_cyl,
            track: self.cur_track,
            sector,
        }
    }

    /// Angular skew (in sectors) applied to the given track.
    fn skew(&self, cyl: u32, track: u32) -> u32 {
        track
            .wrapping_mul(self.spec.track_skew)
            .wrapping_add(cyl.wrapping_mul(self.spec.cyl_skew))
    }

    /// The angular slot at which `sector` of (cyl, track) physically sits.
    fn angular_slot(&self, cyl: u32, track: u32, sector: u32, spt: u32) -> u32 {
        (sector + self.skew(cyl, track) % spt) % spt
    }

    /// Validate a sector-range request up front, so the per-track runs can
    /// then be produced one at a time ([`Self::run_at`]) without allocating
    /// a request-sized list — run planning sits under every simulated
    /// command, so it must not touch the heap.
    fn check_range(&self, lba: u64, count: u32) -> Result<()> {
        let total = self.spec.geometry.total_sectors();
        if lba >= total {
            return Err(DiskError::OutOfRange {
                addr: lba,
                limit: total,
            });
        }
        if lba + count as u64 > total {
            return Err(DiskError::TruncatedTransfer);
        }
        Ok(())
    }

    /// The per-track run starting at `next` with `left` sectors still to
    /// transfer (the run ends at the track boundary or the request end,
    /// whichever comes first). The range must have passed
    /// [`Self::check_range`].
    #[inline]
    fn run_at(&self, next: u64, left: u32) -> Result<Run> {
        let p = self.spec.geometry.lba_to_phys(next)?;
        let spt = self.spec.geometry.sectors_per_track(p.cyl)?;
        Ok(Run {
            cyl: p.cyl,
            track: p.track,
            sector: p.sector,
            count: left.min(spt - p.sector),
            spt,
        })
    }

    /// Mechanical cost of servicing `run` from the media, starting with the
    /// head over (`from_cyl`, `from_track`) at absolute time `t`.
    fn plan_run(&self, run: &Run, from_cyl: u32, from_track: u32, t: u64) -> ServiceTime {
        let mech = &self.spec.mech;
        let seek = self.seek.get(from_cyl.abs_diff(run.cyl));
        let switch = if from_cyl == run.cyl && from_track != run.track {
            mech.head_switch_ns
        } else {
            0
        };
        let reposition = seek.max(switch);
        let t_pos = t + reposition;
        let slot = self.angular_slot(run.cyl, run.track, run.sector, run.spt);
        let rotation = mech.rotational_wait_ns(t_pos, slot, run.spt);
        let transfer = mech.transfer_ns(run.count, run.spt);
        ServiceTime {
            overhead_ns: 0,
            seek_ns: seek,
            head_switch_ns: if seek >= switch { 0 } else { switch },
            rotation_ns: rotation,
            transfer_ns: transfer,
        }
    }

    /// The first logical sector whose *start* will pass under the head after
    /// repositioning from the current position (starting now) to
    /// (`cyl`, `track`). Scanning a track's free list from this sector in
    /// ascending rotational order visits candidates in order of increasing
    /// rotational delay — the seed an eager allocator wants.
    pub fn arrival_sector(&self, cyl: u32, track: u32) -> Result<u32> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        if track >= self.spec.geometry.tracks_per_cylinder() {
            return Err(DiskError::OutOfRange {
                addr: track as u64,
                limit: self.spec.geometry.tracks_per_cylinder() as u64,
            });
        }
        let mech = &self.spec.mech;
        let seek = self.seek.get(self.cur_cyl.abs_diff(cyl));
        let switch = if self.cur_cyl == cyl && self.cur_track != track {
            mech.head_switch_ns
        } else {
            0
        };
        let t_pos = self.clock.now() + seek.max(switch);
        // The sector currently passing is partially gone; the next boundary
        // to arrive is slot+1.
        let slot = (mech.sector_under_head(t_pos, spt) + 1) % spt;
        let skew = self.skew(cyl, track) % spt;
        Ok((slot + spt - skew) % spt)
    }

    /// The cylinder-wide repositioning plan shared by every track of `cyl`
    /// (reached with a head switch when `cyl` is the head's own cylinder):
    /// the seek lookup, the arrival instant and all the angular divisions,
    /// done once. Specialise per track with [`Self::track_pricer_from`].
    /// The plan is only valid while the head position and clock are
    /// unchanged — and it does *not* cover the head's own track (which is
    /// reached without a head switch); use [`Self::track_pricer`] there.
    #[inline]
    pub fn cylinder_pricer(&self, cyl: u32) -> Result<CylinderPricer> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        let mech = &self.spec.mech;
        let seek = self.seek.get(self.cur_cyl.abs_diff(cyl));
        let switch = if self.cur_cyl == cyl {
            mech.head_switch_ns
        } else {
            0
        };
        let t_pos = self.clock.now() + seek.max(switch);
        let rev_ns = mech.revolution_ns();
        let sector_ns = rev_ns / spt as u64;
        let in_rev = t_pos % rev_ns;
        // Same arrival rule as `arrival_sector`: the sector currently
        // passing is partially gone, so the next boundary is slot + 1.
        let slot_plus1 = ((in_rev as u128 * spt as u128 / rev_ns as u128) as u32 + 1) % spt;
        Ok(CylinderPricer {
            cyl,
            spt,
            seek_ns: seek,
            head_switch_ns: switch,
            rev_ns,
            sector_ns,
            in_rev,
            slot_plus1,
        })
    }

    /// Specialise a [`CylinderPricer`] to one of its tracks: only the
    /// track's skew is new work — the seek, arrival instant and angular
    /// divisions are reused from the cylinder plan.
    #[inline]
    pub fn track_pricer_from(&self, c: &CylinderPricer, track: u32) -> TrackPricer {
        let skew = self.skew(c.cyl, track) % c.spt;
        TrackPricer {
            spt: c.spt,
            seek_ns: c.seek_ns,
            head_switch_ns: c.head_switch_ns,
            rev_ns: c.rev_ns,
            sector_ns: c.sector_ns,
            in_rev: c.in_rev,
            skew,
            arrival: (c.slot_plus1 + c.spt - skew) % c.spt,
        }
    }

    /// One-shot repositioning plan for pricing candidates on a single track
    /// from the current instant: the seek/switch/arrival trigonometry that
    /// [`Self::arrival_sector`] and [`Self::position_cost`] would each
    /// redo, computed once. The caller scans the free map from
    /// [`TrackPricer::arrival`] and prices the hit with
    /// [`Self::priced_cost`]. The plan is only valid while the head
    /// position and clock are unchanged.
    #[inline]
    pub fn track_pricer(&self, cyl: u32, track: u32) -> Result<TrackPricer> {
        if track >= self.spec.geometry.tracks_per_cylinder() {
            return Err(DiskError::OutOfRange {
                addr: track as u64,
                limit: self.spec.geometry.tracks_per_cylinder() as u64,
            });
        }
        let mut c = self.cylinder_pricer(cyl)?;
        if self.cur_cyl == cyl && self.cur_track == track {
            // The head's own track: no head switch, so the arrival instant
            // (and hence the angular state) differs from the rest of the
            // cylinder; redo the cheap part of the plan without the switch.
            c.head_switch_ns = 0;
            let t_pos = self.clock.now() + c.seek_ns;
            c.in_rev = t_pos % c.rev_ns;
            c.slot_plus1 =
                ((c.in_rev as u128 * c.spt as u128 / c.rev_ns as u128) as u32 + 1) % c.spt;
        }
        Ok(self.track_pricer_from(&c, track))
    }

    /// Exact positioning cost of `sector` on the track a [`TrackPricer`]
    /// was built for — identical to [`Self::position_cost`] of the same
    /// sector, minus the repeated repositioning work (no divisions: the
    /// plan carries all the angular state). `sector` must lie on the
    /// pricer's track.
    #[inline]
    pub fn priced_cost(&self, p: &TrackPricer, sector: u32) -> ServiceTime {
        debug_assert!(sector < p.spt, "sector off the priced track");
        let slot = (sector + p.skew) % p.spt;
        let target_start = slot as u64 * p.sector_ns;
        let rotation = if target_start >= p.in_rev {
            target_start - p.in_rev
        } else {
            p.rev_ns - p.in_rev + target_start
        };
        ServiceTime {
            overhead_ns: 0,
            seek_ns: p.seek_ns,
            head_switch_ns: if p.seek_ns >= p.head_switch_ns {
                0
            } else {
                p.head_switch_ns
            },
            rotation_ns: rotation,
            transfer_ns: 0,
        }
    }

    /// Pure positioning cost (seek + head switch + rotation, no overhead or
    /// transfer) of moving the head from where it is *now* to the start of
    /// `sector` on (`cyl`, `track`). This is the quantity an eager-writing
    /// allocator minimises when ranking candidate free sectors.
    pub fn position_cost(&self, cyl: u32, track: u32, sector: u32) -> Result<ServiceTime> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        if track >= self.spec.geometry.tracks_per_cylinder() || sector >= spt {
            return Err(DiskError::OutOfRange {
                addr: sector as u64,
                limit: spt as u64,
            });
        }
        let run = Run {
            cyl,
            track,
            sector,
            count: 0,
            spt,
        };
        Ok(self.plan_run(&run, self.cur_cyl, self.cur_track, self.clock.now()))
    }

    /// Estimate, without moving anything, the full service time of an access
    /// to `count` sectors at `lba` issued right now. Used by eager-writing
    /// allocators to rank candidate locations.
    pub fn preview_access(&self, lba: u64, count: u32) -> Result<ServiceTime> {
        self.check_range(lba, count)?;
        let mut t = self.clock.now() + self.spec.command_overhead_ns;
        let mut total = ServiceTime {
            overhead_ns: self.spec.command_overhead_ns,
            ..ServiceTime::ZERO
        };
        let (mut c, mut h) = (self.cur_cyl, self.cur_track);
        let mut next = lba;
        let mut left = count;
        while left > 0 {
            let run = self.run_at(next, left)?;
            let st = self.plan_run(&run, c, h, t);
            t += st.total_ns();
            total += st;
            c = run.cyl;
            h = run.track;
            next += run.count as u64;
            left -= run.count;
        }
        Ok(total)
    }

    /// Read `count` sectors starting at `lba` into `buf`, advancing the
    /// clock by the returned service time.
    ///
    /// The whole command is planned against an absolute-time cursor (the
    /// same arithmetic as [`Self::preview_access`]) and charged to the
    /// clock as **one** event, however many track runs it spans. With
    /// `VLFS_REFERENCE=1` the pre-batching stepwise discipline (one clock
    /// event per run) is used instead; both produce identical times.
    pub fn read_sectors(&mut self, lba: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        self.read_sectors_impl(lba, buf, crate::reference_mode())
    }

    /// The stepwise reference discipline, callable directly by equivalence
    /// tests regardless of the `VLFS_REFERENCE` environment switch.
    #[doc(hidden)]
    pub fn read_sectors_stepwise(&mut self, lba: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        self.read_sectors_impl(lba, buf, true)
    }

    fn read_sectors_impl(&mut self, lba: u64, buf: &mut [u8], stepwise: bool) -> Result<ServiceTime> {
        let count = Self::sector_count(buf.len())?;
        if count == 0 {
            return Ok(ServiceTime::ZERO);
        }
        self.check_range(lba, count)?;
        let mut total = ServiceTime {
            overhead_ns: self.spec.command_overhead_ns,
            ..ServiceTime::ZERO
        };
        if stepwise {
            self.clock.advance(self.spec.command_overhead_ns);
        }
        // Absolute-time cursor: in batched mode the clock itself stands
        // still until the whole command is planned, so rotational phases
        // are computed against `t` rather than `clock.now()`.
        let mut t = self.clock.now() + if stepwise { 0 } else { self.spec.command_overhead_ns };
        let from_cyl = self.cur_cyl;
        let mut off = 0usize;
        let mut next = lba;
        let mut left = count;
        let mut first: Option<Run> = None;
        let mut n_runs = 0u64;
        while left > 0 {
            let run = self.run_at(next, left)?;
            first.get_or_insert(run);
            n_runs += 1;
            if self.obs_enabled && self.metrics.is_enabled() {
                self.metrics.observe("disk.run_len", run.count as u64);
            }
            let part = &mut buf[off..off + run.count as usize * SECTOR_BYTES];
            if self.cache.lookup(run.cyl, run.track, run.sector, run.count) {
                // Buffer hit: deliver at media rate with no positioning and
                // without moving the head.
                let st = ServiceTime {
                    transfer_ns: self.spec.mech.transfer_ns(run.count, run.spt),
                    ..ServiceTime::ZERO
                };
                if stepwise {
                    self.clock.advance(st.total_ns());
                }
                t += st.total_ns();
                total += st;
            } else {
                let st = self.plan_run(&run, self.cur_cyl, self.cur_track, t);
                if stepwise {
                    self.clock.advance(st.total_ns());
                }
                t += st.total_ns();
                total += st;
                self.cur_cyl = run.cyl;
                self.cur_track = run.track;
                self.cache
                    .on_media_read(run.cyl, run.track, run.sector, run.count, run.spt);
            }
            self.store.read(run.cyl, run.track, run.sector, part);
            off += part.len();
            next += run.count as u64;
            left -= run.count;
        }
        if !stepwise {
            self.clock.advance(total.total_ns());
        }
        debug_assert_eq!(t, self.clock.now());
        self.observe_run_count(n_runs);
        self.stats.reads += 1;
        self.stats.sectors_read += count as u64;
        self.stats.busy += total;
        let r0 = first.expect("count > 0 yields at least one run");
        self.observe_op(
            OpKind::Read,
            lba,
            count,
            (r0.cyl, r0.track, r0.sector),
            from_cyl.abs_diff(self.cur_cyl),
            total,
        );
        Ok(total)
    }

    /// Write `buf` (a whole number of sectors) starting at `lba`, advancing
    /// the clock by the returned service time. Writes always reach the
    /// media; there is no write-back cache.
    ///
    /// Like [`Self::read_sectors`], the whole command is one clock event in
    /// the batched default and one event per track run under
    /// `VLFS_REFERENCE=1`, with identical arithmetic either way.
    pub fn write_sectors(&mut self, lba: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.write_sectors_impl(lba, buf, crate::reference_mode())
    }

    /// The stepwise reference discipline, callable directly by equivalence
    /// tests regardless of the `VLFS_REFERENCE` environment switch.
    #[doc(hidden)]
    pub fn write_sectors_stepwise(&mut self, lba: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.write_sectors_impl(lba, buf, true)
    }

    fn write_sectors_impl(&mut self, lba: u64, buf: &[u8], stepwise: bool) -> Result<ServiceTime> {
        let count = Self::sector_count(buf.len())?;
        if count == 0 {
            return Ok(ServiceTime::ZERO);
        }
        self.check_range(lba, count)?;
        let mut total = ServiceTime {
            overhead_ns: self.spec.command_overhead_ns,
            ..ServiceTime::ZERO
        };
        if stepwise {
            self.clock.advance(self.spec.command_overhead_ns);
        }
        let mut t = self.clock.now() + if stepwise { 0 } else { self.spec.command_overhead_ns };
        let from_cyl = self.cur_cyl;
        let mut off = 0usize;
        let mut next = lba;
        let mut left = count;
        let mut first: Option<Run> = None;
        let mut n_runs = 0u64;
        while left > 0 {
            let run = self.run_at(next, left)?;
            first.get_or_insert(run);
            n_runs += 1;
            if self.obs_enabled && self.metrics.is_enabled() {
                self.metrics.observe("disk.run_len", run.count as u64);
            }
            let st = self.plan_run(&run, self.cur_cyl, self.cur_track, t);
            if stepwise {
                self.clock.advance(st.total_ns());
            }
            t += st.total_ns();
            total += st;
            self.cur_cyl = run.cyl;
            self.cur_track = run.track;
            self.cache.on_write(run.cyl, run.track);
            let part = &buf[off..off + run.count as usize * SECTOR_BYTES];
            self.store
                .write(run.cyl, run.track, run.sector, run.spt, part);
            off += part.len();
            next += run.count as u64;
            left -= run.count;
        }
        if !stepwise {
            self.clock.advance(total.total_ns());
        }
        debug_assert_eq!(t, self.clock.now());
        self.observe_run_count(n_runs);
        self.stats.writes += 1;
        self.stats.sectors_written += count as u64;
        self.stats.busy += total;
        let r0 = first.expect("count > 0 yields at least one run");
        self.observe_op(
            OpKind::Write,
            lba,
            count,
            (r0.cyl, r0.track, r0.sector),
            from_cyl.abs_diff(self.cur_cyl),
            total,
        );
        Ok(total)
    }

    /// Read sectors with no simulated cost — for tests and for integrity
    /// checks that model out-of-band verification.
    pub fn peek_sectors(&self, lba: u64, buf: &mut [u8]) -> Result<()> {
        let count = Self::sector_count(buf.len())?;
        self.check_range(lba, count)?;
        let mut off = 0usize;
        let mut next = lba;
        let mut left = count;
        while left > 0 {
            let run = self.run_at(next, left)?;
            let part = &mut buf[off..off + run.count as usize * SECTOR_BYTES];
            self.store.read(run.cyl, run.track, run.sector, part);
            off += part.len();
            next += run.count as u64;
            left -= run.count;
        }
        Ok(())
    }

    /// Write sectors with no simulated cost — for test setup (e.g. aging a
    /// disk image) without perturbing the clock.
    pub fn poke_sectors(&mut self, lba: u64, buf: &[u8]) -> Result<()> {
        let count = Self::sector_count(buf.len())?;
        self.check_range(lba, count)?;
        let mut off = 0usize;
        let mut next = lba;
        let mut left = count;
        while left > 0 {
            let run = self.run_at(next, left)?;
            let part = &buf[off..off + run.count as usize * SECTOR_BYTES];
            self.store
                .write(run.cyl, run.track, run.sector, run.spt, part);
            off += part.len();
            next += run.count as u64;
            left -= run.count;
        }
        Ok(())
    }

    /// Move the head to a given track without transferring data, paying the
    /// mechanical cost. Used by firmware-level operations (e.g. parking).
    pub fn seek_to(&mut self, cyl: u32, track: u32) -> Result<ServiceTime> {
        if cyl >= self.spec.geometry.cylinders() {
            return Err(DiskError::OutOfRange {
                addr: cyl as u64,
                limit: self.spec.geometry.cylinders() as u64,
            });
        }
        let mech = &self.spec.mech;
        let seek = self.seek.get(self.cur_cyl.abs_diff(cyl));
        let switch = if self.cur_cyl == cyl && self.cur_track != track {
            mech.head_switch_ns
        } else {
            0
        };
        let st = ServiceTime {
            seek_ns: seek,
            head_switch_ns: if seek >= switch { 0 } else { switch },
            ..ServiceTime::ZERO
        };
        let seek_cyls = self.cur_cyl.abs_diff(cyl);
        self.clock.advance(st.total_ns());
        self.cur_cyl = cyl;
        self.cur_track = track;
        self.stats.busy += st;
        self.observe_op(OpKind::Seek, 0, 0, (cyl, track, 0), seek_cyls, st);
        Ok(st)
    }

    /// The (cylinder, track) pairs whose data has been materialised in the
    /// sparse store, in deterministic order. Used by image serialisation.
    /// The flat slot table yields them already sorted.
    pub fn materialised_tracks(&self) -> Vec<(u32, u32)> {
        let tpc = self.store.tracks_per_cyl;
        (0..self.store.tracks.len())
            .filter(|&i| self.store.track_bytes(i).is_some())
            .map(|i| (i as u32 / tpc, i as u32 % tpc))
            .collect()
    }

    /// Translate a physical address to an LBA (convenience passthrough).
    pub fn phys_to_lba(&self, p: PhysAddr) -> Result<u64> {
        self.spec.geometry.phys_to_lba(p)
    }

    /// Freeze this disk's complete mutable state. The media image is
    /// flattened into a single contiguous [`BaseImage`] allocation — an
    /// O(media bytes) copy, paid once per captured state — which every
    /// fork then shares; restoring is O(slots) regardless of media size,
    /// and a fork's first write to a track copies just that track.
    /// Observability handles (tracer/metrics/spans) are *not* captured; a
    /// restored disk starts with them disabled.
    pub fn snapshot(&self) -> DiskSnapshot {
        let slots = self.store.tracks.len();
        let total: usize = (0..slots)
            .filter_map(|i| self.store.track_bytes(i))
            .map(<[u8]>::len)
            .sum();
        let mut offsets = vec![None; slots];
        let mut data = Vec::with_capacity(total);
        for (i, slot_offsets) in offsets.iter_mut().enumerate() {
            if let Some(bytes) = self.store.track_bytes(i) {
                *slot_offsets = Some((data.len() as u32, bytes.len() as u32));
                data.extend_from_slice(bytes);
            }
        }
        DiskSnapshot {
            spec: self.spec.clone(),
            now_ns: self.clock.now(),
            local_events: self.clock.local_events(),
            base: Arc::new(BaseImage { offsets, data }),
            tracks_per_cyl: self.store.tracks_per_cyl,
            cur_cyl: self.cur_cyl,
            cur_track: self.cur_track,
            cache: self.cache.clone(),
            stats: self.stats,
            seek: self.seek.clone(),
        }
    }

    fn sector_count(bytes: usize) -> Result<u32> {
        if !bytes.is_multiple_of(SECTOR_BYTES) {
            return Err(DiskError::BadBufferLength {
                expected: (bytes / SECTOR_BYTES + 1) * SECTOR_BYTES,
                actual: bytes,
            });
        }
        Ok((bytes / SECTOR_BYTES) as u32)
    }
}

/// A frozen copy of a [`Disk`]'s complete mutable state: media image
/// (one flattened [`BaseImage`] every fork shares), clock instant,
/// arm/head position, read-ahead buffer and statistics.
///
/// The snapshot is `Send + Sync` plain data — it can be built once on one
/// thread and restored concurrently from many pool workers — and restoring
/// it is O(slots), independent of how much workload produced the state: a
/// fork starts with an empty copy-on-write overlay over the shared base
/// image. `restore` does not touch the process-wide event counter; callers
/// that want rebuild-equivalent event accounting credit
/// [`crate::clock::add_events`] with the captured
/// [`DiskSnapshot::local_events`] themselves.
#[derive(Debug, Clone)]
pub struct DiskSnapshot {
    spec: DiskSpec,
    now_ns: u64,
    local_events: u64,
    base: Arc<BaseImage>,
    tracks_per_cyl: u32,
    cur_cyl: u32,
    cur_track: u32,
    cache: TrackCache,
    stats: DiskStats,
    seek: SeekTable,
}

impl DiskSnapshot {
    /// Reconstruct an independent, fully-functional disk from this
    /// snapshot. The new disk has its own clock (restored to the captured
    /// instant) and disabled observability handles.
    pub fn restore(&self) -> Disk {
        Disk {
            spec: self.spec.clone(),
            clock: SimClock::restore(self.now_ns, self.local_events),
            store: TrackStore {
                tracks: vec![None; self.base.offsets.len()],
                base: Some(Arc::clone(&self.base)),
                tracks_per_cyl: self.tracks_per_cyl,
            },
            cur_cyl: self.cur_cyl,
            cur_track: self.cur_track,
            cache: self.cache.clone(),
            stats: self.stats,
            seek: self.seek.clone(),
            tracer: None,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            obs_enabled: false,
        }
    }

    /// Clock advances the captured system had made through its own clock
    /// when the snapshot was taken (see [`crate::clock::add_events`]).
    pub fn local_events(&self) -> u64 {
        self.local_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        // 6000 RPM-style round numbers come from the HP spec; use the real
        // paper disk to keep parameters honest.
        Disk::new(DiskSpec::hp97560_sim(), SimClock::new())
    }

    #[test]
    fn data_round_trips() {
        let mut d = disk();
        let w = vec![0xabu8; 4 * SECTOR_BYTES];
        d.write_sectors(100, &w).unwrap();
        let mut r = vec![0u8; 4 * SECTOR_BYTES];
        d.read_sectors(100, &mut r).unwrap();
        assert_eq!(w, r);
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let mut d = disk();
        let mut r = vec![0xffu8; SECTOR_BYTES];
        d.read_sectors(0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn service_time_advances_clock_exactly() {
        let mut d = disk();
        let t0 = d.clock().now();
        let st = d.write_sectors(7, &vec![1u8; 2 * SECTOR_BYTES]).unwrap();
        assert_eq!(d.clock().now() - t0, st.total_ns());
    }

    #[test]
    fn write_includes_overhead_and_transfer() {
        let mut d = disk();
        let st = d.write_sectors(0, &vec![1u8; SECTOR_BYTES]).unwrap();
        assert_eq!(st.overhead_ns, d.spec().command_overhead_ns);
        assert_eq!(st.transfer_ns, d.spec().mech.sector_ns(72));
        // Starting position is cylinder 0/track 0, so no seek; rotation only.
        assert_eq!(st.seek_ns, 0);
        assert!(st.rotation_ns < d.spec().mech.revolution_ns());
    }

    #[test]
    fn cross_track_write_pays_head_switch_once() {
        let mut d = disk();
        // Sectors 70..74 span track 0 (72 sectors) into track 1.
        let st = d.write_sectors(70, &vec![1u8; 4 * SECTOR_BYTES]).unwrap();
        assert_eq!(st.head_switch_ns, d.spec().mech.head_switch_ns);
        assert_eq!(st.seek_ns, 0);
        // With skew, the post-switch rotational wait is far less than a rev.
        assert!(st.rotation_ns < 2 * d.spec().mech.revolution_ns());
        assert_eq!(d.head().track, 1);
    }

    #[test]
    fn skew_makes_sequential_cross_track_cheap() {
        let mut d = disk();
        // Write a full track plus a little; the second track's rotational
        // wait after the switch should be small thanks to skew.
        let buf = vec![1u8; 80 * SECTOR_BYTES];
        let st = d.write_sectors(0, &buf).unwrap();
        let rev = d.spec().mech.revolution_ns();
        // 80 sectors of transfer ≈ 1.11 revs; anything under ~2.2 revs total
        // mechanical time means we did not blow a full revolution on the
        // track switch.
        assert!(
            st.locate_ns() + st.transfer_ns < (5 * rev) / 2,
            "sequential cross-track too slow: {:?}",
            st
        );
    }

    #[test]
    fn preview_matches_actual_write() {
        let mut d = disk();
        d.write_sectors(30, &vec![1u8; SECTOR_BYTES]).unwrap();
        let preview = d.preview_access(500, 8).unwrap();
        let actual = d.write_sectors(500, &vec![2u8; 8 * SECTOR_BYTES]).unwrap();
        assert_eq!(preview, actual);
    }

    #[test]
    fn preview_does_not_disturb_state() {
        let mut d = disk();
        d.write_sectors(30, &vec![1u8; SECTOR_BYTES]).unwrap();
        let before_clock = d.clock().now();
        let before_head = d.head();
        let _ = d.preview_access(1000, 8).unwrap();
        assert_eq!(d.clock().now(), before_clock);
        assert_eq!(d.head(), before_head);
    }

    #[test]
    fn sequential_reread_hits_buffer() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 16 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        let first = d.read_sectors(0, &mut buf).unwrap();
        let second = d.read_sectors(8, &mut buf).unwrap();
        // The second read is within the read-ahead: no positioning at all.
        assert!(first.locate_ns() > 0);
        assert_eq!(second.locate_ns(), 0);
        assert_eq!(second.overhead_ns, d.spec().command_overhead_ns);
    }

    #[test]
    fn conservative_buffer_misses_backwards_read() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 32 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(16, &mut buf).unwrap();
        let back = d.read_sectors(0, &mut buf).unwrap();
        assert!(
            back.locate_ns() > 0,
            "backwards read should miss the buffer"
        );
        // Aggressive policy keeps the whole track instead.
        d.set_cache_policy(CachePolicy::AggressiveTrack);
        d.read_sectors(16, &mut buf).unwrap();
        let back = d.read_sectors(0, &mut buf).unwrap();
        assert_eq!(back.locate_ns(), 0);
    }

    #[test]
    fn write_invalidates_read_buffer() {
        let mut d = disk();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap();
        d.write_sectors(2, &vec![9u8; SECTOR_BYTES]).unwrap();
        let again = d.read_sectors(0, &mut buf).unwrap();
        assert!(again.locate_ns() > 0);
        assert_eq!(buf[2 * SECTOR_BYTES], 9);
    }

    #[test]
    fn out_of_range_requests_fail() {
        let mut d = disk();
        let total = d.spec().geometry.total_sectors();
        let mut buf = vec![0u8; SECTOR_BYTES];
        assert!(d.read_sectors(total, &mut buf).is_err());
        assert!(d
            .write_sectors(total - 1, &vec![0u8; 2 * SECTOR_BYTES])
            .is_err());
        assert!(d.read_sectors(0, &mut [0u8; 100]).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 8 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors_read, 8);
        assert_eq!(s.sectors_written, 8);
        assert!(s.busy.total_ns() > 0);
    }

    #[test]
    fn peek_poke_are_free_and_visible() {
        let mut d = disk();
        let t0 = d.clock().now();
        d.poke_sectors(40, &vec![7u8; SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; SECTOR_BYTES];
        d.peek_sectors(40, &mut buf).unwrap();
        assert_eq!(d.clock().now(), t0);
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn seek_to_moves_head_and_charges_time() {
        let mut d = disk();
        let st = d.seek_to(10, 3).unwrap();
        assert_eq!(st.seek_ns, d.spec().mech.seek_ns(10));
        assert_eq!(d.head().cyl, 10);
        assert_eq!(d.head().track, 3);
        assert!(d.seek_to(99, 0).is_err());
    }

    #[test]
    fn arrival_sector_minimises_rotation() {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        let mut d = Disk::new(spec, SimClock::new());
        d.write_sectors(100, &vec![1u8; SECTOR_BYTES]).unwrap();
        // On the head's own track, the arrival sector must be the cheapest
        // rotational target of all 72 sectors.
        let h = d.head();
        let a = d.arrival_sector(h.cyl, h.track).unwrap();
        let cost_a = d.position_cost(h.cyl, h.track, a).unwrap().rotation_ns;
        for s in 0..72 {
            let c = d.position_cost(h.cyl, h.track, s).unwrap().rotation_ns;
            assert!(cost_a <= c, "sector {s} beats arrival {a}: {c} < {cost_a}");
        }
        // Also holds across a head switch within the cylinder.
        let a2 = d.arrival_sector(h.cyl, (h.track + 1) % 19).unwrap();
        let cost_a2 = d
            .position_cost(h.cyl, (h.track + 1) % 19, a2)
            .unwrap()
            .rotation_ns;
        for s in 0..72 {
            let c = d
                .position_cost(h.cyl, (h.track + 1) % 19, s)
                .unwrap()
                .rotation_ns;
            assert!(cost_a2 <= c);
        }
        assert!(d.arrival_sector(0, 99).is_err());
    }

    #[test]
    fn position_cost_agrees_with_preview() {
        // position_cost assumes the mechanism starts moving now; that matches
        // preview_access exactly when the command overhead is zero (as it is
        // on the VLD's internal disk, the main consumer of this API).
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        let mut d = Disk::new(spec, SimClock::new());
        d.write_sectors(123, &vec![1u8; SECTOR_BYTES]).unwrap();
        let lba = 600u64;
        let p = d.spec().geometry.lba_to_phys(lba).unwrap();
        let pos = d.position_cost(p.cyl, p.track, p.sector).unwrap();
        let full = d.preview_access(lba, 8).unwrap();
        assert_eq!(pos.locate_ns(), full.locate_ns());
        assert!(d.position_cost(0, 99, 0).is_err());
        assert!(d.position_cost(0, 0, 99).is_err());
    }

    #[test]
    fn head_position_tracks_rotation() {
        let d = disk();
        let h0 = d.head();
        // Advance 3.5 sector times: truncation in sector_ns cannot push the
        // head position across a boundary either way.
        d.clock().advance(d.spec().mech.sector_ns(72) * 7 / 2);
        let h1 = d.head();
        assert_eq!((h0.sector + 3) % 72, h1.sector);
    }
}
