//! Spans and counters recorded from the benchmark's own code, around the
//! calls it makes into each crate's public functions.
//!
//! Spans never nest: each one wraps a single leaf call into one layer, so
//! a span's duration is that layer's self time and the sum over all spans
//! is the traced share of a job.
//!
//! Spans and the serial workloads' job latencies are on-CPU time of the
//! calling thread ([`cpu_ms`]), not wall clock.

use std::collections::BTreeMap;

/// On-CPU time of the calling thread in ms (`CLOCK_THREAD_CPUTIME_ID`,
/// 64-bit Linux).
///
/// The serial workloads run every job on one thread, so this is the job's
/// own time with the time the thread sat descheduled left out: preempted
/// by other processes on a shared host, or its virtual CPU stolen by the
/// hypervisor. Whatever slows the thread while it runs still counts; on the
/// shared 2-vCPU host the benchmark was sized on, that was most of the
/// run-to-run swing (see `perfbench/README.md`).
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 * 1e-6
}

/// Per-layer self times (ms) and counters of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Times `f` as one span of layer `name`, in on-CPU time.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = cpu_ms();
        let out = f();
        *self.ms.entry(name).or_default() += cpu_ms() - start;
        out
    }

    /// Adds `ms` of self time to layer `name` (for a span timed by hand).
    pub fn add_ms(&mut self, name: &'static str, ms: f64) {
        *self.ms.entry(name).or_default() += ms;
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Keeps the larger of the counter's value and `v`.
    pub fn high_water(&mut self, name: &'static str, v: f64) {
        let slot = self.counts.entry(name).or_default();
        *slot = slot.max(v);
    }

    /// Self time of layer `name` in ms (0 when it never ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` (0 when never counted).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span: the traced share of the work.
    pub fn covered_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}
