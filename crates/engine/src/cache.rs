//! Two-tier content-addressed result cache.
//!
//! Tier 1 is an in-process map (always on while the cache is enabled)
//! holding one entry per run key: the validated record bytes, the report
//! decoded from them at most once, and the JSON body rendered on the
//! first `GET /v1/runs/{key}`. It keeps at most [`MEMORY_CAP`] entries,
//! evicting the oldest. Tier 2 is a directory of `<key>.hpr` files — one
//! [`codec`](crate::codec) record per run key — that persists results
//! across invocations and stays authoritative: an evicted entry reads
//! back from it. Disk reads that fail for any reason (missing file, torn
//! write, stale format, bit rot) are treated as misses and the entry is
//! recomputed and rewritten; the cache never surfaces an error for
//! corrupt content.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so concurrent writers and killed processes leave either the old
//! bytes or the new bytes, never a torn record.
//!
//! Robustness machinery (see `docs/robustness.md`):
//!
//! * **Stale temp sweep** — writers killed between write and rename leak
//!   `.*.tmp.*` files; opening a disk cache sweeps and counts them.
//! * **Corrupt-record quarantine** — a file that reads fine but fails to
//!   decode is moved into `.quarantine/` (evidence for debugging) and the
//!   lookup misses, so the engine transparently re-executes and rewrites
//!   a clean record: the cache self-heals.
//! * **Retried persist** — transient write failures (disk full, injected
//!   `cache.write` faults) are retried under a capped exponential backoff
//!   with jitter derived from the run key; persistent failure is still
//!   only a warning, because caching is an optimization.
//! * **Fault seams** — [`ResultCache::set_faults`] threads a
//!   [`heteropipe_faults::Injector`] into the read and write paths so a
//!   chaos run can exercise every branch above deterministically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use heteropipe::RunReport;
use heteropipe_faults::{with_retries, FaultKind, Injector, RetryPolicy, Site};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::FifoMap;

use crate::codec;
use crate::key::RunKey;

/// Subdirectory (under the cache dir) holding quarantined corrupt records.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// Most run keys the memory tier holds. A count bounds the bytes because
/// entries are near-constant in size: [`RunReport`] holds only
/// aggregates, so a record runs 0.3–0.4 KB and a rendered body 0.9–1.1 KB.
pub const MEMORY_CAP: usize = 8192;

/// Where a cache lookup was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-process map.
    Memory,
    /// A `<key>.hpr` file.
    Disk,
}

/// Counters for the cache's resilience machinery.
#[derive(Debug, Default)]
struct CacheStats {
    tmp_swept: AtomicU64,
    records_quarantined: AtomicU64,
    read_errors: AtomicU64,
    persist_retries: AtomicU64,
    persist_failures: AtomicU64,
}

/// A point-in-time copy of the cache's resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Stale `.*.tmp.*` files swept when the cache was opened.
    pub tmp_swept: u64,
    /// Corrupt records moved to `.quarantine/` (each then re-executed).
    pub records_quarantined: u64,
    /// Disk reads that failed with an I/O error (served as misses).
    pub read_errors: u64,
    /// Persist attempts retried after a transient failure.
    pub persist_retries: u64,
    /// Persists abandoned after the retry budget (entry stays memory-only).
    pub persist_failures: u64,
    /// Entries evicted from the memory tier to stay within [`MEMORY_CAP`].
    pub evictions: u64,
}

/// The memory tier's entry for one run key.
#[derive(Debug)]
struct Entry {
    /// The encoded `.hpr` record, validated; shared out as an `Arc` so
    /// warm byte-level reads clone a pointer, not a record.
    bytes: Arc<Vec<u8>>,
    /// The report, set by `put` or decoded from `bytes` on first use.
    /// `None` inside means the bytes validated but did not decode.
    report: OnceLock<Option<RunReport>>,
    /// The `GET /v1/runs/{key}` body, rendered on first use.
    body: OnceLock<Arc<Vec<u8>>>,
}

impl Entry {
    fn report(&self) -> Option<&RunReport> {
        self.report
            .get_or_init(|| {
                heteropipe_obs::profile::time(crate::prof::decode(), || codec::decode(&self.bytes))
            })
            .as_ref()
    }
}

/// The result cache.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<FifoMap<u128, Arc<Entry>>>,
    disk_dir: Option<PathBuf>,
    faults: Arc<Injector>,
    retry: RetryPolicy,
    stats: CacheStats,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> Self {
        ResultCache {
            memory: Mutex::new(FifoMap::new(MEMORY_CAP)),
            disk_dir: None,
            faults: Arc::new(Injector::disabled()),
            retry: RetryPolicy::DEFAULT,
            stats: CacheStats::default(),
        }
    }

    /// A cache persisting to `dir` (created on first write). Stale temp
    /// files left by crashed writers are swept immediately.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        let mut cache = ResultCache::in_memory();
        let dir = dir.into();
        cache.stats.tmp_swept = AtomicU64::new(sweep_stale_tmp(&dir));
        cache.disk_dir = Some(dir);
        cache
    }

    /// Threads a fault injector into the disk read/write paths.
    pub fn set_faults(&mut self, faults: Arc<Injector>) {
        self.faults = faults;
    }

    /// Overrides the persist retry policy.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The disk directory, if this cache persists.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// The on-disk path for `key` (even if the file does not exist yet).
    pub fn path_for(&self, key: RunKey) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}.hpr", key.hex())))
    }

    /// This cache's resilience counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            tmp_swept: self.stats.tmp_swept.load(Ordering::Relaxed),
            records_quarantined: self.stats.records_quarantined.load(Ordering::Relaxed),
            read_errors: self.stats.read_errors.load(Ordering::Relaxed),
            persist_retries: self.stats.persist_retries.load(Ordering::Relaxed),
            persist_failures: self.stats.persist_failures.load(Ordering::Relaxed),
            evictions: self.memory.lock().unwrap().evictions(),
        }
    }

    /// Looks `key` up, reporting which tier served it. Disk records that
    /// fail to decode are quarantined and read as misses.
    pub fn get(&self, key: RunKey) -> Option<(RunReport, CacheTier)> {
        let (entry, tier) = self.entry(key)?;
        match entry.report() {
            Some(report) => Some((report.clone(), tier)),
            None => {
                if let Some(path) = self.path_for(key) {
                    self.quarantine(key, &path);
                }
                None
            }
        }
    }

    /// Byte-level lookup for the zero-copy warm path: the encoded `.hpr`
    /// record for `key`, *validated* (magic, version, checksum — see
    /// [`codec::validate`]) but never decoded, so a caller that only needs
    /// the record — or only its existence, like a conditional
    /// `GET /v1/runs/{key}` — skips the field-by-field decode entirely.
    pub fn get_bytes(&self, key: RunKey) -> Option<(Arc<Vec<u8>>, CacheTier)> {
        self.entry(key)
            .map(|(entry, tier)| (Arc::clone(&entry.bytes), tier))
    }

    /// The body `GET /v1/runs/{key}` serves: `render`ed from the report on
    /// the first call for an entry, then kept with it.
    pub fn body(
        &self,
        key: RunKey,
        render: impl FnOnce(&RunReport) -> Vec<u8>,
    ) -> Option<Arc<Vec<u8>>> {
        let (entry, _) = self.entry(key)?;
        let report = entry.report()?;
        Some(Arc::clone(
            entry.body.get_or_init(|| Arc::new(render(report))),
        ))
    }

    /// The entry for `key`: the memory tier's, or one built from the
    /// validated disk record and kept in memory from then on.
    fn entry(&self, key: RunKey) -> Option<(Arc<Entry>, CacheTier)> {
        if let Some(entry) = self.memory.lock().unwrap().get(&key.0) {
            return Some((Arc::clone(entry), CacheTier::Memory));
        }
        let entry = Arc::new(Entry {
            bytes: Arc::new(self.read_disk(key)?),
            report: OnceLock::new(),
            body: OnceLock::new(),
        });
        self.memory
            .lock()
            .unwrap()
            .insert(key.0, Arc::clone(&entry));
        Some((entry, CacheTier::Disk))
    }

    /// Reads `key`'s record from disk through the `cache.read` fault seam
    /// and validates it. A record that fails validation is quarantined;
    /// it, a missing file and an I/O error all read as `None`.
    fn read_disk(&self, key: RunKey) -> Option<Vec<u8>> {
        let path = self.path_for(key)?;
        let mut corrupt_injected = false;
        if let Some(fault) = self.faults.roll(Site::CacheRead) {
            if fault.kind == FaultKind::Corrupt {
                corrupt_injected = true;
            } else {
                self.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                self.warn_io(key, "read cache file", &fault.io_error());
                return None;
            }
        }
        let mut bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                self.warn_io(key, "read cache file", &e);
                return None;
            }
        };
        if corrupt_injected {
            if let Some(b) = bytes.first_mut() {
                *b ^= 0x40; // flip a magic bit: validation must reject it
            }
        }
        if heteropipe_obs::profile::time(crate::prof::validate(), || codec::validate(&bytes)) {
            Some(bytes)
        } else {
            self.quarantine(key, &path);
            None
        }
    }

    /// Stores `report` under `key` in both tiers. Transient disk failures
    /// are retried with backoff; a persist that stays broken never
    /// surfaces to the caller — caching is an optimization, never a
    /// correctness requirement — but is counted and logged at warn level
    /// so a silently cold cache is diagnosable.
    pub fn put(&self, key: RunKey, report: &RunReport) {
        let encoded = Arc::new(codec::encode(report));
        self.memory.lock().unwrap().insert(
            key.0,
            Arc::new(Entry {
                bytes: Arc::clone(&encoded),
                report: OnceLock::from(Some(report.clone())),
                body: OnceLock::new(),
            }),
        );
        let Some(path) = self.path_for(key) else {
            return;
        };
        let jitter_seed = (key.0 as u64) ^ ((key.0 >> 64) as u64);
        let outcome = with_retries(
            &self.retry,
            jitter_seed,
            |_| self.persist_once(&path, &encoded),
            |attempt, e: &std::io::Error, sleep_ms| {
                self.stats.persist_retries.fetch_add(1, Ordering::Relaxed);
                obs_log::warn(
                    "engine",
                    "cache persist retrying",
                    &[
                        ("run_key", key.hex().into()),
                        ("attempt", u64::from(attempt).into()),
                        ("backoff_ms", sleep_ms.into()),
                        ("error", e.to_string().into()),
                    ],
                );
            },
        );
        if let Err(e) = outcome {
            self.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
            self.warn_io(key, "persist cache file", &e);
        }
    }

    /// One atomic write attempt: temp file in the cache dir, then rename.
    fn persist_once(&self, path: &Path, encoded: &[u8]) -> std::io::Result<()> {
        if let Some(fault) = self.faults.roll(Site::CacheWrite) {
            return Err(fault.io_error());
        }
        let dir = path
            .parent()
            .ok_or_else(|| std::io::Error::other("cache path has no parent"))?;
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{}",
            path.file_stem().unwrap_or_default().to_string_lossy(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, encoded)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Moves a corrupt record into `.quarantine/` so the slot reads as a
    /// miss (the engine re-executes and rewrites it) while the bad bytes
    /// stay around as evidence.
    fn quarantine(&self, key: RunKey, path: &Path) {
        self.stats
            .records_quarantined
            .fetch_add(1, Ordering::Relaxed);
        let moved = path.parent().map(|dir| {
            let qdir = dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir)
                .and_then(|()| {
                    let dest = qdir.join(path.file_name().unwrap_or_default());
                    std::fs::rename(path, &dest)
                })
                .is_ok()
        });
        if moved != Some(true) {
            // Could not preserve the evidence; at least clear the slot so
            // the rewrite is not blocked by the corrupt file.
            let _ = std::fs::remove_file(path);
        }
        obs_log::warn(
            "engine",
            "corrupt cache record quarantined",
            &[
                ("run_key", key.hex().into()),
                ("path", path.display().to_string().into()),
                ("preserved", u64::from(moved == Some(true)).into()),
            ],
        );
    }

    fn warn_io(&self, key: RunKey, op: &str, err: &std::io::Error) {
        obs_log::warn(
            "engine",
            "cache io failed",
            &[
                ("run_key", key.hex().into()),
                ("op", op.into()),
                ("error", err.to_string().into()),
            ],
        );
    }

    /// Entries currently held in memory.
    pub fn memory_len(&self) -> usize {
        self.memory.lock().unwrap().len()
    }

    /// The same cache with a memory tier of `cap` entries, so tests can
    /// evict without filling [`MEMORY_CAP`] records on disk.
    #[cfg(test)]
    pub(crate) fn with_memory_cap(mut self, cap: usize) -> Self {
        self.memory = Mutex::new(FifoMap::new(cap));
        self
    }
}

/// Removes `.*.tmp.*` files a crashed writer left in `dir`, returning how
/// many were swept. A missing directory sweeps nothing. Shared with the
/// sweep journal ([`crate::journal`]), whose intent writes use the same
/// dot-tmp-rename discipline and leave the same orphans on a crash.
pub(crate) fn sweep_stale_tmp(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.')
            && name.contains(".tmp.")
            && entry.path().is_file()
            && std::fs::remove_file(entry.path()).is_ok()
        {
            swept += 1;
        }
    }
    if swept > 0 {
        obs_log::info(
            "engine",
            "swept stale cache temp files",
            &[
                ("dir", dir.display().to_string().into()),
                ("swept", swept.into()),
            ],
        );
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteropipe::{DirectExecutor, Executor, JobSpec, Organization, SystemConfig};
    use heteropipe_faults::FaultPlan;
    use heteropipe_workloads::{registry, Scale};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "heteropipe-cache-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample() -> (RunKey, RunReport) {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = JobSpec {
            pipeline: &p,
            config: &cfg,
            organization: Organization::Serial,
            misalignment_sensitive: false,
        };
        (
            crate::key::run_key(&spec),
            DirectExecutor::new().execute(&spec),
        )
    }

    fn injector(plan: &str) -> Arc<Injector> {
        Arc::new(Injector::new(FaultPlan::parse(plan).unwrap()))
    }

    #[test]
    fn memory_round_trip() {
        let (key, report) = sample();
        let cache = ResultCache::in_memory();
        assert!(cache.get(key).is_none());
        cache.put(key, &report);
        let (back, tier) = cache.get(key).unwrap();
        assert_eq!(back, report);
        assert_eq!(tier, CacheTier::Memory);
    }

    #[test]
    fn memory_tier_stays_at_its_cap_and_counts_each_eviction() {
        let (_, report) = sample();
        let cache = ResultCache::in_memory();
        for i in 0..MEMORY_CAP as u128 + 3 {
            cache.put(RunKey(i), &report);
        }
        assert_eq!(cache.memory_len(), MEMORY_CAP);
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.get(RunKey(2)).is_none(), "oldest keys evicted");
        assert_eq!(cache.get(RunKey(3)).unwrap().1, CacheTier::Memory);
    }

    #[test]
    fn an_evicted_entry_reads_back_from_disk_byte_identical() {
        let dir = temp_dir("evict");
        let (key, report) = sample();
        let cache = ResultCache::on_disk(&dir).with_memory_cap(1);
        cache.put(key, &report);
        let (put_bytes, _) = cache.get_bytes(key).unwrap();
        let renders = std::cell::Cell::new(0);
        let render = |r: &RunReport| {
            renders.set(renders.get() + 1);
            r.benchmark.clone().into_bytes()
        };
        let body = cache.body(key, render).unwrap();
        assert_eq!(cache.body(key, render).unwrap(), body);
        assert_eq!(renders.get(), 1, "the body is rendered once per entry");

        cache.put(RunKey(key.0 ^ 1), &report);
        assert_eq!(cache.stats().evictions, 1);
        let (back, tier) = cache.get_bytes(key).unwrap();
        assert_eq!(tier, CacheTier::Disk, "evicted entries read from disk");
        assert_eq!(back, put_bytes, "byte-identical to the record put");
        assert_eq!(cache.get(key).unwrap(), (report, CacheTier::Memory));
        assert_eq!(cache.body(key, render).unwrap(), body);
        assert_eq!(renders.get(), 2, "a reloaded entry renders afresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_round_trip_across_instances() {
        let dir = temp_dir("roundtrip");
        let (key, report) = sample();
        ResultCache::on_disk(&dir).put(key, &report);

        // A fresh instance (cold memory) must hit the disk tier.
        let cold = ResultCache::on_disk(&dir);
        let (back, tier) = cold.get(key).unwrap();
        assert_eq!(back, report);
        assert_eq!(tier, CacheTier::Disk);
        // ...and promote to memory.
        assert_eq!(cold.get(key).unwrap().1, CacheTier::Memory);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entry_is_quarantined_and_misses() {
        let dir = temp_dir("corrupt");
        let (key, report) = sample();
        let cache = ResultCache::on_disk(&dir);
        cache.put(key, &report);

        let path = cache.path_for(key).unwrap();
        std::fs::write(&path, b"not a cache record").unwrap();

        let cold = ResultCache::on_disk(&dir);
        assert!(cold.get(key).is_none(), "corrupt file must read as a miss");
        assert_eq!(cold.stats().records_quarantined, 1);
        let quarantined = dir.join(QUARANTINE_DIR).join(format!("{}.hpr", key.hex()));
        assert!(quarantined.is_file(), "evidence preserved in quarantine");
        assert!(!path.exists(), "slot cleared for the rewrite");

        // Re-putting repairs the file.
        cold.put(key, &report);
        assert_eq!(ResultCache::on_disk(&dir).get(key).unwrap().0, report);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_harmless() {
        let dir = temp_dir("absent");
        let cache = ResultCache::on_disk(&dir);
        let (key, _) = sample();
        assert!(cache.get(key).is_none());
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".deadbeef.tmp.1234.0"), b"torn").unwrap();
        std::fs::write(dir.join(".cafe.tmp.1234.7"), b"torn too").unwrap();
        std::fs::write(dir.join("keep.hpr"), b"a real record slot").unwrap();

        let cache = ResultCache::on_disk(&dir);
        assert_eq!(cache.stats().tmp_swept, 2);
        assert!(!dir.join(".deadbeef.tmp.1234.0").exists());
        assert!(dir.join("keep.hpr").exists(), "non-temp files untouched");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_faults_are_retried_until_persisted() {
        let dir = temp_dir("retry-write");
        let (key, report) = sample();
        let mut cache = ResultCache::on_disk(&dir);
        // Two straight failures, then success — within the default budget.
        cache.set_faults(injector("cache.write:err=enospc:max=2"));
        cache.put(key, &report);
        let s = cache.stats();
        assert_eq!(s.persist_retries, 2, "both faults retried");
        assert_eq!(s.persist_failures, 0);
        assert_eq!(
            ResultCache::on_disk(&dir).get(key).unwrap().0,
            report,
            "record landed on disk despite the faults"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_write_retries_fail_soft() {
        let dir = temp_dir("retry-exhausted");
        let (key, report) = sample();
        let mut cache = ResultCache::on_disk(&dir);
        cache.set_faults(injector("cache.write:err=enospc"));
        cache.set_retry(RetryPolicy {
            attempts: 3,
            base_ms: 0,
            cap_ms: 0,
        });
        cache.put(key, &report);
        let s = cache.stats();
        assert_eq!(s.persist_retries, 2);
        assert_eq!(s.persist_failures, 1);
        // The memory tier still serves it; disk never got the record.
        assert_eq!(cache.get(key).unwrap().1, CacheTier::Memory);
        assert!(ResultCache::on_disk(&dir).get(key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_fault_is_a_counted_miss() {
        let dir = temp_dir("read-fault");
        let (key, report) = sample();
        ResultCache::on_disk(&dir).put(key, &report);

        let mut cold = ResultCache::on_disk(&dir);
        cold.set_faults(injector("cache.read:err=eio:max=1"));
        assert!(cold.get(key).is_none(), "injected read error is a miss");
        assert_eq!(cold.stats().read_errors, 1);
        // The next read (fault budget spent) succeeds from disk.
        assert_eq!(cold.get(key).unwrap().1, CacheTier::Disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_quarantines_and_self_heals() {
        let dir = temp_dir("read-corrupt");
        let (key, report) = sample();
        ResultCache::on_disk(&dir).put(key, &report);

        let mut cold = ResultCache::on_disk(&dir);
        cold.set_faults(injector("cache.read:err=corrupt:max=1"));
        assert!(
            cold.get(key).is_none(),
            "bit-flipped record must not decode"
        );
        assert_eq!(cold.stats().records_quarantined, 1);

        // Self-heal: the caller re-puts (as the engine does on a miss) and
        // the slot serves cleanly again.
        cold.put(key, &report);
        assert_eq!(ResultCache::on_disk(&dir).get(key).unwrap().0, report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
