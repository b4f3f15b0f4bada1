//! Process-level readings from `/proc/self` and the run's scratch space.

use std::path::{Path, PathBuf};

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak RSS reading (`VmHWM`) from the current RSS, so a
/// later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() {
    // "5" resets the peak resident set size (proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds this process has used so far, over all of
/// its threads.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    let tick = |i: usize| f.get(i).copied().unwrap_or(0.0) / USER_HZ;
    (tick(11), tick(12))
}

/// `(steal, total)` clock ticks of every CPU of the machine so far, from
/// the first line of `/proc/stat`. Steal is time in which a virtual
/// machine's CPUs had work but its host ran something else; between two
/// readings it shows how much a run was slowed by other tenants.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// The share of the machine's CPU time that the host gave to other
/// tenants between two [`host_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// A CPU set in the layout of glibc's `cpu_set_t` (1024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> CpuSet {
    let mut set = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        set = [u64::MAX; 16];
    }
    set
}

/// Sets the affinity of every thread of this process to `set`. A thread
/// started later inherits its creator's, so the listing repeats until it
/// finds no thread it has not set.
fn set_all_threads(set: &CpuSet) {
    let mut done = std::collections::BTreeSet::new();
    loop {
        let tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .filter(|tid| !done.contains(tid))
            .collect();
        if tids.is_empty() {
            return;
        }
        for tid in tids {
            // SAFETY: `set` is a readable buffer of exactly the size
            // passed. A thread that has exited meanwhile fails with
            // ESRCH, which is fine.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) };
            done.insert(tid);
        }
    }
}

/// The set holding only `cpu`.
fn only(cpu: usize) -> CpuSet {
    let mut set = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Time of a short loop of data-dependent branches over a byte program,
/// the way an interpreter runs. On the reference host it took 22 µs on a
/// vCPU in its fast state and 27–29 µs in its slow one, while a plain
/// multiply-add loop of the same length stayed at 26 µs in both.
fn probe(program: &[u8]) -> std::time::Duration {
    let t = std::time::Instant::now();
    let mut r = [1u64; 8];
    for _ in 0..3 {
        for &op in program {
            match op {
                0 => r[0] = r[0].wrapping_add(r[1]),
                1 => r[1] ^= r[2] << 1,
                2 => r[2] = r[2].wrapping_mul(3),
                3 => r[3] = r[0] >> 2,
                4 => r[4] = r[4].wrapping_sub(r[3]),
                5 => r[5] = r[5].rotate_left(5) ^ r[4],
                6 => r[6] = r[6].wrapping_add(r[5] & 0xff),
                _ => r[7] ^= r[6],
            }
        }
    }
    std::hint::black_box(r);
    t.elapsed()
}

/// The CPU of `allowed` that runs [`probe`] fastest right now. Leaves the
/// calling thread on it.
fn fastest(allowed: &CpuSet) -> usize {
    let program: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
        .collect();
    let cpus = (0..1024).filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0);
    let timed: Vec<(usize, std::time::Duration)> = cpus
        .map(|c| {
            // SAFETY: a readable buffer of exactly the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only(c)) };
            let best = (0..5).map(|_| probe(&program)).min();
            (c, best.unwrap_or_default())
        })
        .collect();
    let best = timed.iter().min_by_key(|(_, d)| *d).map_or(0, |(c, _)| *c);
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only(best)) };
    best
}

/// While alive, every thread of this process (and every thread started
/// meanwhile) runs on one CPU: the fastest of this process's CPUs when it
/// was last picked. On drop, every thread gets the process's former CPUs
/// back.
///
/// A closed loop between threads of this process on two vCPUs waits for a
/// wake-up of an idle vCPU on every exchange, and on a shared host that
/// wake-up waits for a host CPU: a latency set by the other tenants' load,
/// several times per request. On one vCPU the threads hand over directly.
/// Each vCPU of the reference host also flips between a fast and a slow
/// state every few seconds, each on its own (a fixed Python loop took
/// 11.6 ms in one and 17–20 ms in the other), so the pick is renewed a few
/// times a second ([`OneCpu::refresh`]) and the loop runs fast whenever
/// either vCPU is.
pub struct OneCpu {
    former: CpuSet,
    picked: std::time::Instant,
}

impl OneCpu {
    /// How long a pick of the fastest CPU stands.
    const PICK_S: f64 = 0.25;

    pub fn pin() -> OneCpu {
        let former = allowed_cpus();
        set_all_threads(&only(fastest(&former)));
        OneCpu {
            former,
            picked: std::time::Instant::now(),
        }
    }

    /// Moves every thread to the fastest CPU again once the last pick is
    /// [`Self::PICK_S`] old. Call it between requests; a pick takes about
    /// half a millisecond on two CPUs.
    pub fn refresh(&mut self) {
        if self.picked.elapsed().as_secs_f64() >= Self::PICK_S {
            set_all_threads(&only(fastest(&self.former)));
            self.picked = std::time::Instant::now();
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        set_all_threads(&self.former);
    }
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let root = Path::new(".bench_out").join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing path for one cache directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb() > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let high = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        assert!(
            peak_rss_mb() < high,
            "the peak restarts from the current RSS"
        );
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        let (steal, total) = host_ticks();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_share((1, 100), (3, 300)), 0.01);
    }

    #[test]
    fn one_cpu_pins_every_thread_and_gives_the_cpus_back() {
        let before = allowed_cpus();
        let ones = |s: &CpuSet| s.iter().map(|w| w.count_ones()).sum::<u32>();
        // A thread that exists before the pin and one started during it.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let old = std::thread::spawn(move || {
            rx.recv().unwrap();
            allowed_cpus()
        });
        {
            let _pin = OneCpu::pin();
            assert_eq!(ones(&allowed_cpus()), 1);
            let new = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(new, allowed_cpus());
            tx.send(()).unwrap();
            assert_eq!(old.join().unwrap(), allowed_cpus());
        }
        assert_eq!(allowed_cpus(), before);
    }
}
