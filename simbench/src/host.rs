//! The host: the process's CPU time and peak resident memory, the
//! fingerprint that names the host a number came from, and a probe that
//! follows the host's speed.
//!
//! On a shared host the same binary runs up to 75% faster or slower from
//! one minute to the next, as other tenants come and go. The speed probe
//! is a fixed reference computation timed between the slices of every
//! measured run; the run's wall and CPU times are scaled by
//! [`REFERENCE_PROBE_S`] over the mean wall and CPU time of its probes,
//! which puts every run on the reference host's clock. The probe shares
//! no code with the simulator, so a change to the program cannot move it.
//! It mixes event calendars over slabs (like the engine's calendar and
//! arena), one small and one the size of the simulator's working set,
//! with allocation churn (like the agents' per-packet buffers): of the
//! kernels tried, this mix tracked the simulator's speed best.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("simbench reads /proc and the Linux CPU clocks: 64-bit Linux only");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from the Linux headers.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User plus system CPU seconds this process has used so far, summed over
/// all its threads, including worker threads that have already exited, to
/// the nanosecond.
pub(crate) fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps no reference to it; `ts` is a live, aligned value
    // laid out like that struct on 64-bit Linux (checked above), and the
    // clock id is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line in kB");
    kib / 1024.0
}

/// Logical cores, CPU model and compiler: printed with every result so a
/// figure is never compared against one measured on another host.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: logical_cores={cores} cpu_model=\"{model}\" rustc=\"{}\"",
        env!("SIMBENCH_RUSTC_VERSION")
    )
}

/// The probe's median time, in seconds, on the host the README's sizing
/// table names: the clock every scaled time is expressed in.
pub(crate) const REFERENCE_PROBE_S: f64 = 0.008;

/// Slab slots of the small calendar, and events popped from it.
const SMALL_SLOTS: usize = 4096;
const EVENTS: u64 = 20_000;

/// Entries kept in the large calendar, and events popped from it.
const LARGE_LIVE: usize = 40_000;
const LARGE_EVENTS: u64 = 12_000;

/// Allocation rounds per probe.
const ALLOC_ROUNDS: usize = 250;

/// xorshift64: a fixed pseudo-random stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A calendar entry: (time, slab slot), earliest first.
type Entry = Reverse<(u64, usize)>;

/// The speed probe and its buffers. The buffers are allocated once, so
/// probing adds a constant to the process's memory and moves neither
/// `peak_rss_mb` nor the allocator's state between probes.
pub(crate) struct SpeedProbe {
    heap: BinaryHeap<Entry>,
    free: Vec<usize>,
    small: Vec<[u64; 6]>,
    large: Vec<[u64; 8]>,
}

/// What one speed probe took.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// Wall seconds.
    pub(crate) wall_s: f64,
    /// Process CPU seconds.
    pub(crate) cpu_s: f64,
}

impl Default for SpeedProbe {
    /// Allocate the buffers and touch every page once.
    fn default() -> SpeedProbe {
        let mut probe = SpeedProbe {
            heap: BinaryHeap::with_capacity(LARGE_LIVE),
            free: Vec::with_capacity(SMALL_SLOTS),
            small: Vec::with_capacity(SMALL_SLOTS),
            large: Vec::with_capacity(LARGE_LIVE),
        };
        probe.run();
        probe
    }
}

impl SpeedProbe {
    /// Run one probe.
    pub(crate) fn run(&mut self) -> Probe {
        let cpu = cpu_seconds();
        let start = Instant::now();
        black_box(self.small_calendar());
        black_box(self.large_calendar());
        black_box(allocations());
        Probe {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu,
        }
    }

    /// Pop-and-reschedule on a small binary-heap calendar whose entries
    /// index a slab of payloads, some events spawning a second one.
    fn small_calendar(&mut self) -> u64 {
        let (heap, slab, free) = (&mut self.heap, &mut self.small, &mut self.free);
        heap.clear();
        slab.clear();
        free.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..SMALL_SLOTS as u64 / 2 {
            slab.push([i; 6]);
            heap.push(Reverse((i * 7919 % 10007, i as usize)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Some(Reverse((t, slot))) = heap.pop() else {
                break;
            };
            acc = acc.wrapping_add(slab[slot][(t % 6) as usize]);
            free.push(slot);
            let r = next(&mut x);
            let spawn = if r.is_multiple_of(3) { 2 } else { 1 };
            for _ in 0..spawn {
                let Some(s) = free.pop() else { break };
                slab[s] = [r, t, acc, r >> 3, t + 1, acc >> 5];
                heap.push(Reverse((t + 1 + r % 5000, s)));
            }
            if heap.len() < SMALL_SLOTS / 4 && slab.len() < SMALL_SLOTS {
                slab.push([r; 6]);
                heap.push(Reverse((t + 1, slab.len() - 1)));
            }
        }
        acc
    }

    /// The same pop-and-reschedule over a calendar and slab of a few MiB,
    /// the size of the simulator's working set, so the probe also feels
    /// contention for the shared caches.
    fn large_calendar(&mut self) -> u64 {
        let (heap, slab) = (&mut self.heap, &mut self.large);
        heap.clear();
        slab.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..LARGE_LIVE {
            slab.push([i as u64; 8]);
            heap.push(Reverse((next(&mut x) % 100_000, i)));
        }
        let mut acc = 0u64;
        for _ in 0..LARGE_EVENTS {
            let Some(Reverse((t, slot))) = heap.pop() else {
                break;
            };
            acc = acc.wrapping_add(slab[slot][(t % 8) as usize]);
            let r = next(&mut x);
            slab[slot] = [r, t, acc, r >> 3, t + 1, acc >> 5, r, t];
            heap.push(Reverse((t + 1 + r % 50_000, slot)));
        }
        acc
    }
}

/// Build and drop batches of small vectors of varying length.
fn allocations() -> usize {
    let mut acc = 0;
    for i in 0..ALLOC_ROUNDS {
        let batch: Vec<Vec<u64>> = (0..64).map(|j| vec![(i + j) as u64; 32 + j]).collect();
        acc += black_box(&batch).iter().map(Vec::len).sum::<usize>();
    }
    acc
}
