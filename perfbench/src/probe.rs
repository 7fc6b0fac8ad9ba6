//! Dependency-free host probes: a counting global allocator and readers
//! for the Linux `/proc/self` files the per-layer rows come from.
//!
//! Every reader degrades to zeros when its file is missing or malformed
//! (a non-Linux host), so a probe can never fail a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
///
/// Atomics audit: the counters are statistics that publish no other
/// data, so `Relaxed` suffices; readers take differences of totals
/// sampled on one thread after the measured call has returned (and,
/// for pool work, after the pool has joined).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics touched outside the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator (hence by `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Allocations and reallocations so far.
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently live (requested minus freed).
    pub live: u64,
}

impl AllocSnapshot {
    /// The allocator totals now.
    pub fn now() -> Self {
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        AllocSnapshot {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes,
            live: bytes.saturating_sub(FREED_BYTES.load(Ordering::Relaxed)),
        }
    }
}

/// Scheduler totals of one thread, from `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Nanoseconds on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds runnable but waiting in the run queue.
    pub runq_ns: u64,
}

/// Scheduler totals of every thread of the process, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct SchedSnapshot {
    threads: Vec<(u64, Sched)>,
}

impl SchedSnapshot {
    /// Reads every `/proc/self/task/*/schedstat`.
    pub fn now() -> Self {
        let mut threads = Vec::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok())
                else {
                    continue;
                };
                let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
                    continue;
                };
                let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
                let on_cpu_ns = fields.next().unwrap_or(0);
                let runq_ns = fields.next().unwrap_or(0);
                threads.push((tid, Sched { on_cpu_ns, runq_ns }));
            }
        }
        threads.sort_unstable_by_key(|&(tid, _)| tid);
        SchedSnapshot { threads }
    }

    /// Per-thread growth since `before` (threads born in between count
    /// from zero), summed over all threads and over all but `main`.
    pub fn since(&self, before: &SchedSnapshot, main: u64) -> SchedDelta {
        let mut d = SchedDelta::default();
        for &(tid, now) in &self.threads {
            let then = before
                .threads
                .binary_search_by_key(&tid, |&(t, _)| t)
                .map_or(Sched::default(), |i| before.threads[i].1);
            let cpu = now.on_cpu_ns.saturating_sub(then.on_cpu_ns);
            d.on_cpu_ns += cpu;
            d.runq_ns += now.runq_ns.saturating_sub(then.runq_ns);
            if tid != main {
                d.worker_cpu_ns += cpu;
            }
        }
        d
    }
}

/// Scheduler growth over an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedDelta {
    /// On-CPU nanoseconds over all threads.
    pub on_cpu_ns: u64,
    /// Run-queue nanoseconds over all threads.
    pub runq_ns: u64,
    /// On-CPU nanoseconds of every thread but the caller's.
    pub worker_cpu_ns: u64,
}

/// The calling thread's kernel id (`/proc/thread-self`), 0 if unknown.
pub fn thread_id() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|n| n.to_str()).and_then(|s| s.parse().ok()))
        .unwrap_or(0)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Minor page faults of the process so far (`/proc/self/stat`, field 10).
pub fn minflt() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some((_, rest)) = text.rsplit_once(')') else { return 0 };
    // `rest` starts at field 3 (state), so field 10 is the 8th entry.
    rest.split_whitespace().nth(7).and_then(|f| f.parse().ok()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(status_bytes("VmHWM") > 0);
        assert!(status_bytes("VmRSS") > 0);
        let before = AllocSnapshot::now();
        let v: Vec<u64> = std::hint::black_box(vec![7; 1024]);
        let after = AllocSnapshot::now();
        assert!(after.count > before.count);
        assert!(after.bytes - before.bytes >= 8 * 1024);
        drop(v);
        assert!(thread_id() > 0);
        let s = SchedSnapshot::now();
        assert!(!s.threads.is_empty());
        let _ = minflt();
    }
}
