//! A transparent timing wrapper for any [`BlockDevice`].
//!
//! [`Timed`] forwards every trait method to the device it wraps and opens
//! one [`crate::trace`] span around each call that does work (reads,
//! writes, trims, flushes, idle grants, snapshots). Accessors (block size,
//! block count, clock, span handle, statistics, downcast views) forward
//! without a span. Downcast views forward too, so `disksim::probe_device`
//! walks straight through the wrapper as if it were not there.
//!
//! Snapshots of a wrapped stack restore wrapped: the wrapper snapshots its
//! inner device and re-wraps the restored copy, running an optional
//! [`Attach`] hook on it first (used to attach a metrics registry to the
//! forked device, since restored stacks come up detached).

use disksim::{BlockDevice, DeviceSnapshot, DiskStats, Result, ServiceTime, SimClock};

use crate::trace;

/// Called on each device restored under a wrapper, before it is re-wrapped.
pub type Attach = fn(Box<dyn BlockDevice>) -> Box<dyn BlockDevice>;

/// The timing wrapper.
pub struct Timed {
    inner: Box<dyn BlockDevice>,
    layer: usize,
    idle_layer: usize,
    attach: Option<Attach>,
}

impl Timed {
    /// Wrap `inner`; foreground calls record under `layer`, idle grants
    /// under `idle_layer`.
    pub fn new(inner: Box<dyn BlockDevice>, layer: usize, idle_layer: usize) -> Self {
        Self {
            inner,
            layer,
            idle_layer,
            attach: None,
        }
    }

    /// Run `attach` on every device restored from a snapshot of this one.
    pub fn with_attach(mut self, attach: Attach) -> Self {
        self.attach = Some(attach);
        self
    }
}

impl BlockDevice for Timed {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn clock(&self) -> SimClock {
        self.inner.clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        trace::span(self.layer, || self.inner.read_block(block, buf))
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime> {
        trace::span(self.layer, || self.inner.write_block(block, buf))
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        trace::span(self.layer, || self.inner.read_blocks(start, buf))
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> Result<ServiceTime> {
        trace::span(self.layer, || self.inner.write_blocks(start, buf))
    }

    fn trim(&mut self, block: u64) -> Result<()> {
        trace::span(self.layer, || self.inner.trim(block))
    }

    fn idle(&mut self, budget_ns: u64) -> u64 {
        trace::span(self.idle_layer, || self.inner.idle(budget_ns))
    }

    fn flush(&mut self) -> Result<ServiceTime> {
        trace::span(self.layer, || self.inner.flush())
    }

    fn disk_stats(&self) -> DiskStats {
        self.inner.disk_stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn self_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.self_any()
    }

    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        self.inner.inner_device()
    }

    fn spans(&self) -> disksim::Spans {
        self.inner.spans()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        let inner = trace::span(self.layer, || self.inner.snapshot())?;
        Some(Box::new(TimedSnapshot {
            inner,
            layer: self.layer,
            idle_layer: self.idle_layer,
            attach: self.attach,
        }))
    }
}

/// Snapshot of a [`Timed`] device: the inner snapshot plus the wrapper's
/// settings, so a restore comes back wrapped.
struct TimedSnapshot {
    inner: Box<dyn DeviceSnapshot>,
    layer: usize,
    idle_layer: usize,
    attach: Option<Attach>,
}

impl DeviceSnapshot for TimedSnapshot {
    fn restore(&self) -> Box<dyn BlockDevice> {
        let mut dev = self.inner.restore();
        if let Some(attach) = self.attach {
            dev = attach(dev);
        }
        Box::new(Timed {
            inner: dev,
            layer: self.layer,
            idle_layer: self.idle_layer,
            attach: self.attach,
        })
    }

    fn local_events(&self) -> u64 {
        self.inner.local_events()
    }
}
