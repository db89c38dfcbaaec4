//! The synthetic workloads: one closed-loop client driving a single aged
//! file through the public `FileSystem` interface.
//!
//! * `vld_sync_update` — UFS on a VLD (ST19101), one file at 90 % of
//!   usable capacity, random 4 KB `O_SYNC` writes with a read-back every
//!   4th op and no idle time.
//! * `lfs_burst_idle` — LFS (6.1 MB NVRAM file cache over the
//!   log-structured logical disk) on a regular ST19101 disk, one file at
//!   80 %, bursts of async random 4 KB writes mixed with reads of a hot set
//!   that fits in the cache, an idle gap after each burst.
//!
//! Set-up ages the system (format, fill the file, warm up) and captures a
//! snapshot; every measured batch forks that snapshot and replays the same
//! seed-generated operations, so every batch must produce bit-identical
//! simulated results. A shadow of the file's contents checks every read.

use std::cell::RefCell;
use std::time::Instant;

use disksim::{
    downcast_device, probe_device, BlockDevice, DiskSpec, DiskStats, Metrics, RegularDisk, SimClock,
};
use fscore::{FileId, FileSystem, FsResult, HostModel};
use lfs::{lfs_filesystem, LfsConfig, LogDisk};
use ufs::{Ufs, UfsConfig, UfsSnapshot};
use vlog_core::{Vld, VldConfig};

use crate::stats::{median, quantile_sorted, Values};
use crate::timed::Timed;
use crate::trace;

/// File block size.
pub const BLOCK: usize = 4096;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Ops per `vld_sync_update` batch (plus a final sync).
const VLD_OPS: usize = 6000;

/// Bursts per `lfs_burst_idle` batch.
const LFS_BURSTS: usize = 6;
/// Ops per burst: two writes for every hot-set read.
const LFS_BURST_OPS: usize = 1536;
/// Hot-set blocks (1 MB, well inside the 6.1 MB cache).
const LFS_HOT: u64 = 256;
/// Simulated idle time after each burst.
const LFS_IDLE_NS: u64 = 1_000_000_000;
/// Warm-up writes that cycle the NVRAM cache once during set-up.
const LFS_WARMUP: u64 = 2000;

/// Which synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// UFS on VLD, synchronous random updates.
    VldSyncUpdate,
    /// LFS on a regular disk, bursts and idle gaps.
    LfsBurstIdle,
}

impl Workload {
    fn file_frac(self) -> f64 {
        match self {
            Workload::VldSyncUpdate => 0.9,
            Workload::LfsBurstIdle => 0.8,
        }
    }
}

/// One client operation on the target file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Write a fresh version of this block.
    Write(u64),
    /// Read this block back and check it against the shadow.
    Read(u64),
    /// Grant this many simulated nanoseconds of idle time.
    Idle(u64),
    /// Flush everything (`sync`).
    Sync,
}

/// splitmix64: the workload generator (inputs depend only on the seed).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The contents of `block` at `version` (0 = as set-up wrote it): the
/// block number and version, then words derived from both and the seed.
pub fn fill(buf: &mut [u8], seed: u64, block: u64, version: u32) {
    let mut w =
        Rng::new(seed ^ block.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((version as u64) << 40))
            .next_u64();
    buf[..8].copy_from_slice(&block.to_le_bytes());
    buf[8..16].copy_from_slice(&(version as u64).to_le_bytes());
    for chunk in buf[16..].chunks_exact_mut(8) {
        w = w.wrapping_add(0x9E37_79B9_7F4A_7C15);
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// The operations of one batch, from the seed alone.
pub fn gen_ops(w: Workload, seed: u64, file_blocks: u64) -> Vec<Op> {
    let mut r = Rng::new(seed ^ 0x0B5E_55ED);
    let mut ops = Vec::new();
    match w {
        Workload::VldSyncUpdate => {
            for i in 0..VLD_OPS {
                let b = r.below(file_blocks);
                ops.push(if i % 4 == 3 {
                    Op::Read(b)
                } else {
                    Op::Write(b)
                });
            }
        }
        Workload::LfsBurstIdle => {
            let hot: Vec<u64> = (0..LFS_HOT).map(|_| r.below(file_blocks)).collect();
            for _ in 0..LFS_BURSTS {
                for i in 0..LFS_BURST_OPS {
                    ops.push(if i % 3 == 2 {
                        Op::Read(hot[r.below(LFS_HOT) as usize])
                    } else {
                        Op::Write(r.below(file_blocks))
                    });
                }
                ops.push(Op::Idle(LFS_IDLE_NS));
            }
        }
    }
    ops.push(Op::Sync);
    ops
}

thread_local! {
    /// The registry traced forks attach to their virtual log.
    static METRICS: RefCell<Metrics> = RefCell::new(Metrics::disabled());
}

/// Restore hook for traced VLD stacks: count allocator paths, map writes
/// and checkpoints into the current batch's registry.
fn attach_vld(dev: Box<dyn BlockDevice>) -> Box<dyn BlockDevice> {
    let mut vld: Vld = downcast_device(dev);
    vld.vlog_mut()
        .set_metrics(METRICS.with(|m| m.borrow().clone()));
    Box::new(vld)
}

/// Build the workload's stack, unwrapped or with a timing wrapper at each
/// device boundary.
pub fn make_stack(w: Workload, traced: bool) -> FsResult<Ufs> {
    let host = HostModel::sparcstation_10();
    let spec = DiskSpec::st19101_sim();
    match w {
        Workload::VldSyncUpdate => {
            let vld = Box::new(Vld::format(spec, SimClock::new(), VldConfig::default()));
            let dev: Box<dyn BlockDevice> = if traced {
                Box::new(Timed::new(vld, trace::VLD, trace::COMPACT).with_attach(attach_vld))
            } else {
                vld
            };
            Ufs::format(dev, host, UfsConfig::default())
        }
        Workload::LfsBurstIdle => {
            let raw = Box::new(RegularDisk::new(spec, SimClock::new(), BLOCK));
            let cfg = LfsConfig::default();
            if !traced {
                return lfs_filesystem(raw, host, cfg);
            }
            // `lfs_filesystem` assembled by hand, with a wrapper above the
            // raw disk and above the logical disk.
            let mut lld_cfg = cfg.lld;
            if lld_cfg.cpu_per_block_ns == 0 {
                lld_cfg.cpu_per_block_ns = host.per_block_ns;
            }
            let raw = Box::new(Timed::new(raw, trace::DISK, trace::DISK));
            let lld = Box::new(LogDisk::format(raw, lld_cfg)?);
            let ufs_cfg = UfsConfig {
                inode_count: cfg.inode_count,
                cache_bytes: cfg.cache_bytes,
                sync_data: false,
                readahead_blocks: 0,
                trim_on_delete: true,
                flush_on_full: true,
            };
            Ufs::format(
                Box::new(Timed::new(lld, trace::LLD, trace::LLD_IDLE)),
                host,
                ufs_cfg,
            )
        }
    }
}

/// An aged system: the snapshot every batch forks, and its target file.
pub struct Aged {
    /// The captured system.
    pub snap: UfsSnapshot,
    /// Handle of the target file (valid in every fork).
    pub file: FileId,
    /// Target file length in blocks.
    pub file_blocks: u64,
}

/// Host time of one set-up, split by phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Format, fill and warm-up.
    pub age_ns: u64,
    /// `Ufs::snapshot`.
    pub capture_ns: u64,
    /// One `UfsSnapshot::restore`.
    pub fork_ns: u64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_ns(&self) -> u64 {
        self.age_ns + self.capture_ns + self.fork_ns
    }
}

/// Age a fresh system: fill the target file with version-0 contents, warm
/// it up, and switch to the workload's write discipline.
pub fn age(w: Workload, traced: bool, seed: u64) -> FsResult<(Ufs, FileId, u64)> {
    let mut fs = make_stack(w, traced)?;
    let file_blocks = (fs.free_blocks() as f64 * w.file_frac()) as u64;
    let f = fs.create("target")?;
    let mut chunk = vec![0u8; 64 * BLOCK];
    let mut start = 0;
    while start < file_blocks {
        let n = (file_blocks - start).min(64);
        for j in 0..n {
            let at = j as usize * BLOCK;
            fill(&mut chunk[at..at + BLOCK], seed, start + j, 0);
        }
        fs.write(f, start * BLOCK as u64, &chunk[..n as usize * BLOCK])?;
        start += n;
    }
    fs.sync()?;
    match w {
        Workload::VldSyncUpdate => fs.set_sync_writes(true),
        Workload::LfsBurstIdle => {
            // Cycle the NVRAM cache once so the log starts in steady state;
            // the contents stay at version 0.
            let mut r = Rng::new(seed ^ 0xA6E);
            let buf = &mut chunk[..BLOCK];
            for _ in 0..LFS_WARMUP {
                let b = r.below(file_blocks);
                fill(buf, seed, b, 0);
                fs.write(f, b * BLOCK as u64, buf)?;
            }
            fs.sync()?;
        }
    }
    Ok((fs, f, file_blocks))
}

/// Age, capture and fork once, timing each phase.
pub fn setup(w: Workload, traced: bool, seed: u64) -> FsResult<(Aged, SetupTimes)> {
    let t0 = Instant::now();
    let (fs, file, file_blocks) = age(w, traced, seed)?;
    let t1 = Instant::now();
    let snap = fs
        .snapshot()
        .expect("every workload stack supports snapshots");
    let t2 = Instant::now();
    drop(fs);
    let t3 = Instant::now();
    let fork = snap.restore();
    let t4 = Instant::now();
    drop(fork);
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    Ok((
        Aged {
            snap,
            file,
            file_blocks,
        },
        SetupTimes {
            age_ns: ns(t0, t1),
            capture_ns: ns(t1, t2),
            fork_ns: ns(t3, t4),
        },
    ))
}

/// Reusable per-batch buffers.
#[derive(Default)]
pub struct Scratch {
    host_ns: Vec<u64>,
    write_sim: Vec<u64>,
    read_sim: Vec<u64>,
    shadow: Vec<u32>,
}

/// Simulated results of a batch: identical in every batch of a run, traced
/// or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    /// Median simulated write latency.
    pub write_p50_ns: u64,
    /// 99th-percentile simulated write latency.
    pub write_p99_ns: u64,
    /// Median simulated read latency.
    pub read_p50_ns: u64,
    /// Device bytes written per user byte written.
    pub write_amp: f64,
    /// Disk activity during the batch: commands read and written, sectors
    /// read and written, then busy nanoseconds by component (overhead,
    /// seek, head switch, rotation, transfer).
    pub disk: [u64; 9],
    /// Hash of every op's simulated latency, the disk activity and the
    /// final clock. (Simulation events are counted process-wide, so they
    /// are compared by the caller, which runs one batch at a time.)
    pub fingerprint: u64,
}

/// Layer counters read around each traced batch, by metric name.
pub const COUNTERS: [&str; 13] = [
    "cache.hits",
    "cache.misses",
    "vlog.data_writes",
    "vlog.map_writes",
    "vlog.checkpoints",
    "alloc.fast_path",
    "alloc.greedy_fallback",
    "compact.blocks_moved",
    "compact.tracks_emptied",
    "lld.segments_cleaned",
    "lld.blocks_copied",
    "lld.clean_on_demand",
    "lld.clean_during_idle",
];

/// What a traced batch adds: span totals and the [`COUNTERS`] deltas.
#[derive(Debug, Clone, Copy)]
pub struct LayerOut {
    /// Span totals.
    pub spans: trace::Totals,
    /// Counter deltas, in [`COUNTERS`] order.
    pub counters: [u64; COUNTERS.len()],
}

/// One measured batch.
#[derive(Debug, Clone)]
pub struct BatchOut {
    /// Host wall time of the batch's operations.
    pub wall_ns: u64,
    /// Median and 99th-percentile host time per `FileSystem` call.
    pub host_op_ns: (u64, u64),
    /// Simulation events the batch executed.
    pub events: u64,
    /// Operations attempted and failed (errors and read-back mismatches).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Simulated results.
    pub sim: SimOut,
    /// Layer counters (traced batches only).
    pub layers: Option<LayerOut>,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
}

/// The fields of [`SimOut::disk`].
fn stats_array(d: &DiskStats) -> [u64; 9] {
    let b = d.busy;
    [
        d.reads,
        d.writes,
        d.sectors_read,
        d.sectors_written,
        b.overhead_ns,
        b.seek_ns,
        b.head_switch_ns,
        b.rotation_ns,
        b.transfer_ns,
    ]
}

/// The cumulative [`COUNTERS`] of a stack; layers it lacks read 0.
fn counters(fs: &Ufs, m: &Metrics) -> [u64; COUNTERS.len()] {
    let vld = probe_device::<Vld>(fs.device());
    let v = vld.map(|v| v.vlog().stats()).unwrap_or_default();
    let c = vld.map(|v| v.compactor().stats()).unwrap_or_default();
    let l = probe_device::<LogDisk>(fs.device())
        .map(LogDisk::cleaner_stats)
        .unwrap_or_default();
    let gauge = |k| m.gauge_value(k).unwrap_or(0) as u64;
    [
        gauge("ufs.cache_hits"),
        gauge("ufs.cache_misses"),
        v.data_writes,
        v.map_writes,
        v.checkpoints,
        m.counter_value("alloc.fast_path"),
        m.counter_value("alloc.greedy_fallback"),
        c.blocks_moved,
        c.tracks_emptied,
        l.segments_cleaned,
        l.blocks_copied,
        l.on_demand,
        l.during_idle,
    ]
}

/// Run `ops` on `fs` (a fresh fork) as one batch. A traced batch records a
/// span around every `FileSystem` call (the device wrappers inside add
/// theirs) and collects layer counters.
pub fn run_batch(
    fs: &mut Ufs,
    file: FileId,
    file_blocks: u64,
    ops: &[Op],
    seed: u64,
    traced: bool,
    s: &mut Scratch,
) -> BatchOut {
    s.host_ns.clear();
    s.write_sim.clear();
    s.read_sim.clear();
    s.shadow.clear();
    s.shadow.resize(file_blocks as usize, 0);
    // Traced forks share one registry between the file layer (cache
    // gauges) and the virtual log (allocator counters, attached at restore).
    let metrics = if traced {
        METRICS.with(|m| m.borrow().clone())
    } else {
        Metrics::disabled()
    };
    let mut before = [0; COUNTERS.len()];
    if traced {
        fs.set_metrics(metrics.clone());
        before = counters(fs, &metrics);
        trace::take();
    }
    let clock = fs.clock();
    let disk0 = fs.device().disk_stats();
    let ev0 = disksim::clock::events();
    let mut wbuf = vec![0u8; BLOCK];
    let mut rbuf = vec![0u8; BLOCK];
    let mut expect = vec![0u8; BLOCK];
    let mut version = 0u32;
    let mut failed = 0u64;
    let mut fp = 0xCBF2_9CE4_8422_2325u64;
    let mut user_writes = 0u64;

    let t0 = Instant::now();
    if traced {
        trace::enter(trace::DRIVER);
    }
    for &op in ops {
        let h0 = Instant::now();
        let s0 = clock.now();
        let call = |f: &mut dyn FnMut() -> FsResult<usize>| {
            if traced {
                trace::span(trace::UFS, f)
            } else {
                f()
            }
        };
        let r = match op {
            Op::Write(b) => {
                version += 1;
                fill(&mut wbuf, seed, b, version);
                s.shadow[b as usize] = version;
                user_writes += 1;
                call(&mut || fs.write(file, b * BLOCK as u64, &wbuf).map(|()| BLOCK))
            }
            Op::Read(b) => call(&mut || fs.read(file, b * BLOCK as u64, &mut rbuf)),
            Op::Idle(ns) => call(&mut || {
                fs.idle(ns);
                Ok(0)
            }),
            Op::Sync => call(&mut || fs.sync().map(|()| 0)),
        };
        let sim = clock.now() - s0;
        s.host_ns.push(h0.elapsed().as_nanos() as u64);
        fp = mix(fp, sim);
        match (op, r) {
            (Op::Write(_), Ok(_)) => s.write_sim.push(sim),
            (Op::Read(b), Ok(n)) => {
                s.read_sim.push(sim);
                fill(&mut expect, seed, b, s.shadow[b as usize]);
                if n != BLOCK || rbuf != expect {
                    failed += 1;
                }
            }
            (_, Ok(_)) => {}
            (_, Err(_)) => failed += 1,
        }
    }
    if traced {
        trace::exit();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let events = disksim::clock::events() - ev0;
    let (a, b) = (stats_array(&disk0), stats_array(&fs.device().disk_stats()));
    let disk: [u64; 9] = std::array::from_fn(|i| b[i] - a[i]);
    for v in disk.into_iter().chain([clock.now()]) {
        fp = mix(fp, v);
    }
    s.host_ns.sort_unstable();
    s.write_sim.sort_unstable();
    s.read_sim.sort_unstable();
    let sim = SimOut {
        write_p50_ns: quantile_sorted(&s.write_sim, 0.5),
        write_p99_ns: quantile_sorted(&s.write_sim, 0.99),
        read_p50_ns: quantile_sorted(&s.read_sim, 0.5),
        write_amp: (disk[3] * disksim::SECTOR_BYTES as u64) as f64
            / (user_writes * BLOCK as u64).max(1) as f64,
        disk,
        fingerprint: fp,
    };
    let layers = traced.then(|| {
        let after = counters(fs, &metrics);
        LayerOut {
            spans: trace::take(),
            counters: std::array::from_fn(|i| after[i] - before[i]),
        }
    });
    BatchOut {
        wall_ns,
        host_op_ns: (
            quantile_sorted(&s.host_ns, 0.5),
            quantile_sorted(&s.host_ns, 0.99),
        ),
        events,
        attempted: ops.len() as u64,
        failed,
        sim,
        layers,
    }
}

/// Fork the aged system and run one batch on the fork. Returns the batch
/// and the fork's host time.
fn forked_batch(
    aged: &Aged,
    ops: &[Op],
    seed: u64,
    traced: bool,
    s: &mut Scratch,
) -> (BatchOut, u64) {
    if traced {
        METRICS.with(|m| *m.borrow_mut() = Metrics::enabled());
    }
    let t = Instant::now();
    let mut fs = aged.snap.restore();
    let fork_ns = t.elapsed().as_nanos() as u64;
    let out = run_batch(&mut fs, aged.file, aged.file_blocks, ops, seed, traced, s);
    METRICS.with(|m| *m.borrow_mut() = Metrics::disabled());
    (out, fork_ns)
}

/// Everything one run of a synthetic workload measured.
pub struct RunOut {
    /// Metric values by name.
    pub values: Values,
    /// Operations attempted over all batches.
    pub attempted: u64,
    /// Failed operations plus batches whose simulated results differed
    /// from the first batch's.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
}

/// The most a traced batch's wall may differ from the sum of its layers'
/// self times, as a share of the wall.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.01;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run a synthetic workload: set up, then measure batches for `seconds`
/// (alternating untraced and traced batches when `trace_mode`).
pub fn run(w: Workload, seed: u64, seconds: f64, trace_mode: bool) -> FsResult<RunOut> {
    let mut setups = Vec::new();
    let mut aged = None;
    for _ in 0..SETUPS {
        let (a, t) = setup(w, false, seed)?;
        setups.push(t);
        aged = Some(a);
    }
    let aged = aged.expect("at least one set-up");
    let traced_aged = if trace_mode {
        Some(setup(w, true, seed)?.0)
    } else {
        None
    };
    let ops = gen_ops(w, seed, aged.file_blocks);

    let mut s = Scratch::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut fork_ns = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let min_batches = if trace_mode { 4 } else { 3 };
    let mut i = 0usize;
    while i < min_batches || Instant::now() < deadline {
        match &traced_aged {
            Some(ta) if i % 2 == 1 => traced.push(forked_batch(ta, &ops, seed, true, &mut s).0),
            _ => {
                let (b, f) = forked_batch(&aged, &ops, seed, false, &mut s);
                plain.push(b);
                fork_ns.push(f as f64);
            }
        }
        i += 1;
    }

    // Every batch replays the same ops on the same fork: its simulated
    // results and layer counts must match the first batch's exactly.
    let first = plain[0].sim;
    let layers: Vec<LayerOut> = traced.iter().filter_map(|b| b.layers).collect();
    let mut attempted = 0;
    let mut failed = 0;
    for b in plain.iter().chain(&traced) {
        attempted += b.attempted;
        failed += b.failed + u64::from(b.sim != first || b.events != plain[0].events);
    }
    for l in &layers {
        let l0 = &layers[0];
        failed += u64::from(l.spans.calls != l0.spans.calls || l.counters != l0.counters);
    }

    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let wall = median(&plain.iter().map(|b| b.wall_ns as f64).collect::<Vec<_>>());
    put("wall_s", wall / 1e9);
    put(
        "sim_events_per_s",
        median(
            &plain
                .iter()
                .map(|b| b.events as f64 * 1e9 / b.wall_ns as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let med_setup =
        |f: fn(&SetupTimes) -> u64| median(&setups.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    put("setup_s", med_setup(SetupTimes::total_ns) / 1e9);
    put("peak_rss_mb", crate::peak_rss_mb());
    put("ok_frac", 1.0 - failed as f64 / attempted as f64);

    put(
        "host_op_us_p50",
        median(
            &plain
                .iter()
                .map(|b| b.host_op_ns.0 as f64)
                .collect::<Vec<_>>(),
        ) / 1e3,
    );
    put(
        "host_op_us_p99",
        median(
            &plain
                .iter()
                .map(|b| b.host_op_ns.1 as f64)
                .collect::<Vec<_>>(),
        ) / 1e3,
    );
    put("sim_write_ms_p50", ms(first.write_p50_ns));
    put("sim_write_ms_p99", ms(first.write_p99_ns));
    put("sim_read_ms_p50", ms(first.read_p50_ns));
    put("write_amp", first.write_amp);
    let d = first.disk;
    put("disk.cmds", (d[0] + d[1]) as f64);
    put("disk.sectors_read", d[2] as f64);
    put("disk.sectors_written", d[3] as f64);
    put("disk.busy_ms.overhead", ms(d[4]));
    put("disk.busy_ms.seek", ms(d[5]));
    put("disk.busy_ms.head_switch", ms(d[6]));
    put("disk.busy_ms.rotation", ms(d[7]));
    put("disk.busy_ms.transfer", ms(d[8]));
    put("setup.age_ms", med_setup(|t| t.age_ns) / 1e6);
    put("snapshot.capture_ms", med_setup(|t| t.capture_ns) / 1e6);
    put("snapshot.fork_ms", median(&fork_ns) / 1e6);

    let mut unaccounted = 0.0;
    if let Some(l0) = layers.first() {
        let self_ms = |layer: usize| {
            median(
                &layers
                    .iter()
                    .map(|l| l.spans.self_ms(layer))
                    .collect::<Vec<_>>(),
            )
        };
        let calls = |layer: usize| l0.spans.calls[layer] as f64;
        put("driver.self_ms", self_ms(trace::DRIVER));
        put("ufs.calls", calls(trace::UFS));
        put("ufs.self_ms", self_ms(trace::UFS));
        put(
            "ufs.self_us_per_call",
            self_ms(trace::UFS) * 1e3 / calls(trace::UFS).max(1.0),
        );
        for (name, &n) in COUNTERS.iter().zip(&l0.counters) {
            put(name, n as f64);
        }
        let count = |name: &str| {
            let i = COUNTERS.iter().position(|&n| n == name).expect("a counter");
            l0.counters[i] as f64
        };
        let ratio = |a: &str, b: &str| count(a) / count(b).max(1.0);
        put(
            "cache.hit_ratio",
            count("cache.hits") / (count("cache.hits") + count("cache.misses")).max(1.0),
        );
        put(
            "vlog.map_per_data",
            ratio("vlog.map_writes", "vlog.data_writes"),
        );
        put(
            "lld.copied_per_cleaned",
            ratio("lld.blocks_copied", "lld.segments_cleaned"),
        );
        put("vld.calls", calls(trace::VLD));
        put("vld.self_ms", self_ms(trace::VLD));
        put("compact.idle_ms", self_ms(trace::COMPACT));
        put("lld.calls", calls(trace::LLD));
        put("lld.self_ms", self_ms(trace::LLD));
        put("lld.idle_ms", self_ms(trace::LLD_IDLE));
        put("disk.self_ms", self_ms(trace::DISK));
        let traced_wall = median(&traced.iter().map(|b| b.wall_ns as f64).collect::<Vec<_>>());
        put("trace.overhead_frac", traced_wall / wall - 1.0);
        unaccounted = traced
            .iter()
            .zip(&layers)
            .map(|(b, l)| {
                (b.wall_ns as f64 - l.spans.self_ns_sum() as f64).abs() / b.wall_ns as f64
            })
            .fold(0.0, f64::max);
        put("trace.unaccounted_frac", unaccounted);
    }
    Ok(RunOut {
        values: v,
        attempted,
        failed,
        correct: failed == 0 && unaccounted <= UNACCOUNTED_TOLERANCE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ops(w: Workload, seed: u64, file_blocks: u64) -> Vec<Op> {
        let mut ops: Vec<Op> = gen_ops(w, seed, file_blocks)
            .into_iter()
            .take(600)
            .collect();
        if w == Workload::LfsBurstIdle {
            ops.push(Op::Idle(LFS_IDLE_NS));
        }
        ops.push(Op::Sync);
        ops
    }

    /// A wrapped stack simulates exactly what the plain stack does: the
    /// same per-op simulated latencies, disk statistics and read bytes.
    #[test]
    fn wrapped_stacks_simulate_identically() {
        for w in [Workload::VldSyncUpdate, Workload::LfsBurstIdle] {
            let (plain, _) = setup(w, false, 3).unwrap();
            let (wrapped, _) = setup(w, true, 3).unwrap();
            assert_eq!(plain.file_blocks, wrapped.file_blocks);
            let ops = small_ops(w, 3, plain.file_blocks);
            let mut s = Scratch::default();
            let a = forked_batch(&plain, &ops, 3, false, &mut s).0;
            let b = forked_batch(&wrapped, &ops, 3, true, &mut s).0;
            assert_eq!(a.failed, 0, "{w:?}");
            assert_eq!(b.failed, 0, "{w:?}");
            assert_eq!(a.sim, b.sim, "{w:?}");
            let spans = b.layers.unwrap().spans;
            assert!(spans.calls[trace::UFS] as usize == ops.len());
            match w {
                Workload::VldSyncUpdate => assert!(spans.calls[trace::VLD] > 0),
                Workload::LfsBurstIdle => {
                    assert!(spans.calls[trace::LLD] > 0 && spans.calls[trace::DISK] > 0);
                    assert!(spans.calls[trace::LLD_IDLE] > 0);
                }
            }
        }
    }

    /// Device-level identity of the wrapper: service times, bytes read and
    /// statistics all match the bare device.
    #[test]
    fn timed_device_is_transparent() {
        let mk = || RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK);
        let mut bare: Box<dyn BlockDevice> = Box::new(mk());
        let mut wrapped: Box<dyn BlockDevice> =
            Box::new(Timed::new(Box::new(mk()), trace::DISK, trace::DISK));
        let mut r = Rng::new(9);
        let mut buf = vec![0u8; BLOCK * 2];
        let (mut ra, mut rb) = (vec![0u8; BLOCK * 2], vec![0u8; BLOCK * 2]);
        for i in 0..300u32 {
            let b = r.below(bare.num_blocks() - 2);
            fill(&mut buf[..BLOCK], 1, b, i);
            fill(&mut buf[BLOCK..], 1, b + 1, i);
            match i % 3 {
                0 => assert_eq!(
                    bare.write_blocks(b, &buf).unwrap(),
                    wrapped.write_blocks(b, &buf).unwrap()
                ),
                1 => assert_eq!(
                    bare.write_block(b, &buf[..BLOCK]).unwrap(),
                    wrapped.write_block(b, &buf[..BLOCK]).unwrap()
                ),
                _ => {
                    assert_eq!(
                        bare.read_blocks(b, &mut ra).unwrap(),
                        wrapped.read_blocks(b, &mut rb).unwrap()
                    );
                    assert_eq!(ra, rb);
                }
            }
        }
        assert_eq!(
            stats_array(&bare.disk_stats()),
            stats_array(&wrapped.disk_stats())
        );
        assert_eq!(bare.clock().now(), wrapped.clock().now());
        let restored = wrapped.snapshot().unwrap().restore();
        assert_eq!(
            stats_array(&restored.disk_stats()),
            stats_array(&bare.disk_stats())
        );
        trace::take();
    }

    /// A device that corrupts every block it returns.
    struct Corrupt(Box<dyn BlockDevice>);

    impl BlockDevice for Corrupt {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn clock(&self) -> SimClock {
            self.0.clock()
        }
        fn read_block(
            &mut self,
            block: u64,
            buf: &mut [u8],
        ) -> disksim::Result<disksim::ServiceTime> {
            let st = self.0.read_block(block, buf)?;
            buf[100] ^= 0xFF;
            Ok(st)
        }
        fn write_block(&mut self, block: u64, buf: &[u8]) -> disksim::Result<disksim::ServiceTime> {
            self.0.write_block(block, buf)
        }
        fn disk_stats(&self) -> DiskStats {
            self.0.disk_stats()
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// An injected read corruption is counted as a failure.
    #[test]
    fn corrupted_reads_are_counted() {
        let vld = Vld::format(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            VldConfig::default(),
        );
        let dev = Box::new(Corrupt(Box::new(vld)));
        let mut fs = Ufs::format(dev, HostModel::sparcstation_10(), UfsConfig::default()).unwrap();
        let f = fs.create("target").unwrap();
        let blocks = 64u64;
        let mut buf = vec![0u8; BLOCK];
        for b in 0..blocks {
            fill(&mut buf, 5, b, 0);
            fs.write(f, b * BLOCK as u64, &buf).unwrap();
        }
        fs.sync().unwrap();
        fs.drop_caches();
        let ops: Vec<Op> = (0..blocks).map(Op::Read).collect();
        let mut s = Scratch::default();
        let out = run_batch(&mut fs, f, blocks, &ops, 5, false, &mut s);
        assert_eq!(out.attempted, blocks);
        assert!(
            out.failed > 0,
            "corrupted read-backs must count as failures"
        );

        // The same reads on a healthy device all pass.
        let (aged, _) = setup(Workload::VldSyncUpdate, false, 5).unwrap();
        let mut fs = aged.snap.restore();
        fs.drop_caches();
        let ops: Vec<Op> = (0..blocks).map(Op::Read).collect();
        let out = run_batch(&mut fs, aged.file, aged.file_blocks, &ops, 5, false, &mut s);
        assert_eq!(out.failed, 0);
    }

    /// Two set-ups from one seed replay bit-identically; another seed
    /// gives other inputs and other simulated results.
    #[test]
    fn same_seed_repeats_bit_identically() {
        let w = Workload::VldSyncUpdate;
        let mut s = Scratch::default();
        let mut sims = Vec::new();
        for seed in [7, 7, 8] {
            let (aged, _) = setup(w, false, seed).unwrap();
            let ops = small_ops(w, seed, aged.file_blocks);
            sims.push(forked_batch(&aged, &ops, seed, false, &mut s).0.sim);
        }
        assert_eq!(sims[0], sims[1]);
        assert_ne!(sims[0], sims[2]);
    }

    #[test]
    fn ops_depend_only_on_the_seed() {
        for w in [Workload::VldSyncUpdate, Workload::LfsBurstIdle] {
            assert_eq!(gen_ops(w, 11, 5000), gen_ops(w, 11, 5000));
            assert_ne!(gen_ops(w, 11, 5000), gen_ops(w, 12, 5000));
        }
    }
}
