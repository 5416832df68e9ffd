//! The emulated NVM device.
//!
//! Stores are word-granular and land in the device's *volatile layer* (the
//! stand-in for CPU caches plus the memory controller's buffers). Durability
//! requires an explicit [`Nvm::flush`] of the written range followed by an
//! [`Nvm::fence`] — mirroring `CLWB`/`SFENCE` on real hardware (§2.2). A
//! simulated [`Nvm::crash`] reverts every non-durable word, which is what
//! lets the test suite *observe* crash consistency instead of assuming it.
//!
//! Words are `AtomicU64` with relaxed ordering: the device never provides
//! inter-thread synchronization (that is the TM's job); atomics only make
//! concurrent word access well-defined in safe Rust.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::stats::{NvmStats, StatsSnapshot};
use crate::timing::{is_background_stage, TimingConfig, TimingModel};
use crate::CACHE_LINE;

/// Configuration for an emulated NVM device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmConfig {
    /// Device capacity in bytes; must be a positive multiple of 8.
    pub size_bytes: u64,
    /// Persistence-cost model.
    pub timing: TimingConfig,
    /// When `true`, the device keeps a durable image and dirty-word tracking
    /// so [`Nvm::crash`] works. Costs 2× memory and a lock per store; meant
    /// for crash-consistency tests, not throughput runs.
    pub crash_tracking: bool,
    /// When `true`, the device counts how many times each cache line is
    /// flushed — the cell-wear statistic behind the paper's endurance
    /// motivation for log combination (§1, §3.3). One `u32` per line.
    pub wear_tracking: bool,
}

impl NvmConfig {
    /// Functional-testing configuration: no delays, crash tracking on.
    pub fn for_testing(size_bytes: u64) -> Self {
        NvmConfig {
            size_bytes,
            timing: TimingConfig::disabled(),
            crash_tracking: true,
            wear_tracking: false,
        }
    }

    /// Benchmark configuration: the given timing model, crash tracking off.
    pub fn for_benchmark(size_bytes: u64, timing: TimingConfig) -> Self {
        NvmConfig {
            size_bytes,
            timing,
            crash_tracking: false,
            wear_tracking: false,
        }
    }

    /// Enables per-line wear accounting (endurance experiments).
    #[must_use]
    pub fn with_wear_tracking(mut self) -> Self {
        self.wear_tracking = true;
        self
    }
}

/// Per-line wear summary (see [`NvmConfig::with_wear_tracking`]).
///
/// Each count is one flush of that 64-byte line — the unit of physical cell
/// wear on a real device. The paper motivates log combination by NVM's
/// limited endurance; [`WearSummary::max_line_writes`] is the hot-spot
/// metric combination should reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearSummary {
    /// Flushes of the most-written line.
    pub max_line_writes: u32,
    /// Total line flushes across the device.
    pub total_line_writes: u64,
    /// Distinct lines flushed at least once.
    pub lines_touched: u64,
}

/// The kind of persistence event a [`CrashPlan`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashEventKind {
    /// A word store ([`Nvm::write_word`]).
    Write,
    /// A cache-line flush ([`Nvm::flush`], emulated `CLWB`).
    Flush,
    /// A persist barrier ([`Nvm::fence`], emulated `SFENCE`).
    Fence,
}

/// Which pipeline stage's events a [`CrashPlan`] counts, distinguished by
/// the [`set_background_stage`](crate::set_background_stage) thread flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StageFilter {
    /// Count events from every thread.
    #[default]
    Any,
    /// Only events from threads *not* marked as background stages
    /// (application / Perform threads).
    Foreground,
    /// Only events from threads marked as background stages (DudeTM's
    /// Persist and Reproduce workers).
    Background,
}

/// A deterministic crash trigger: simulate a power failure at the Nth
/// matching persistence event.
///
/// Arm a plan with [`Nvm::arm_crash_plan`] before running a workload. When
/// the Nth matching event is *about to execute*, the device freezes the
/// post-crash image — by default the strict [`Nvm::crash`] outcome (only
/// fenced data survives), or, with [`CrashPlan::with_torn_line`], the
/// adversarial "everything drained except one torn cache line" outcome.
/// Threads keep running on the volatile layer so a live pipeline is never
/// wedged mid-run; after quiescing, [`Nvm::apply_planned_crash`] installs
/// the frozen image and the test recovers from it.
///
/// Sweeping `trip_at` over `1..=N` (with `N` from
/// [`Nvm::persistence_events`] of an identical un-armed run) enumerates a
/// crash at every persistence event of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    event: CrashEventKind,
    stage: StageFilter,
    trip_at: u64,
    torn_seed: Option<u64>,
}

impl CrashPlan {
    /// Crash at the `trip_at`-th (1-based) event of kind `event`, counted
    /// across all threads.
    ///
    /// # Panics
    ///
    /// Panics if `trip_at` is zero.
    pub fn at_nth(event: CrashEventKind, trip_at: u64) -> Self {
        assert!(
            trip_at >= 1,
            "crash plans are 1-based; trip_at must be >= 1"
        );
        CrashPlan {
            event,
            stage: StageFilter::Any,
            trip_at,
            torn_seed: None,
        }
    }

    /// Restricts counting to the given stage filter.
    #[must_use]
    pub fn for_stage(mut self, stage: StageFilter) -> Self {
        self.stage = stage;
        self
    }

    /// Switches the frozen image from the strict all-volatile-lost outcome
    /// to torn-cache-line injection: every unflushed line survives *except
    /// one*, chosen by `seed` among the lines that were not yet durable at
    /// the crash instant. This models the other edge of the `CLWB`/`SFENCE`
    /// window, where the cache happened to drain almost everything.
    #[must_use]
    pub fn with_torn_line(mut self, seed: u64) -> Self {
        self.torn_seed = Some(seed);
        self
    }
}

/// Point-in-time persistence-event counts, split by pipeline stage (see
/// [`Nvm::persistence_events`]). `writes`/`flushes`/`fences` are totals
/// across all threads; the `background_*` fields count the subset issued by
/// threads marked with [`set_background_stage`](crate::set_background_stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistenceEvents {
    /// Word stores, all threads.
    pub writes: u64,
    /// Cache-line flushes, all threads.
    pub flushes: u64,
    /// Persist barriers, all threads.
    pub fences: u64,
    /// Word stores from background-stage threads.
    pub background_writes: u64,
    /// Cache-line flushes from background-stage threads.
    pub background_flushes: u64,
    /// Persist barriers from background-stage threads.
    pub background_fences: u64,
}

impl PersistenceEvents {
    /// Events of `event` kind matching `stage` — the number of distinct
    /// crash points a [`CrashPlan`] sweep over that filter can hit.
    pub fn count(&self, event: CrashEventKind, stage: StageFilter) -> u64 {
        let (all, bg) = match event {
            CrashEventKind::Write => (self.writes, self.background_writes),
            CrashEventKind::Flush => (self.flushes, self.background_flushes),
            CrashEventKind::Fence => (self.fences, self.background_fences),
        };
        match stage {
            StageFilter::Any => all,
            StageFilter::Background => bg,
            StageFilter::Foreground => all - bg,
        }
    }
}

/// Always-on (under crash tracking) atomic event tallies.
#[derive(Debug, Default)]
struct EventCounters {
    writes: AtomicU64,
    flushes: AtomicU64,
    fences: AtomicU64,
    bg_writes: AtomicU64,
    bg_flushes: AtomicU64,
    bg_fences: AtomicU64,
}

impl EventCounters {
    fn bump(&self, kind: CrashEventKind, background: bool) {
        let (all, bg) = match kind {
            CrashEventKind::Write => (&self.writes, &self.bg_writes),
            CrashEventKind::Flush => (&self.flushes, &self.bg_flushes),
            CrashEventKind::Fence => (&self.fences, &self.bg_fences),
        };
        all.fetch_add(1, Ordering::Relaxed);
        if background {
            bg.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> PersistenceEvents {
        PersistenceEvents {
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            background_writes: self.bg_writes.load(Ordering::Relaxed),
            background_flushes: self.bg_flushes.load(Ordering::Relaxed),
            background_fences: self.bg_fences.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.writes.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.fences.store(0, Ordering::Relaxed);
        self.bg_writes.store(0, Ordering::Relaxed);
        self.bg_flushes.store(0, Ordering::Relaxed);
        self.bg_fences.store(0, Ordering::Relaxed);
    }
}

/// An armed [`CrashPlan`] plus its running match count.
#[derive(Debug)]
struct ArmedPlan {
    plan: CrashPlan,
    matched: AtomicU64,
}

/// SplitMix64: small deterministic mixer for torn-line selection.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// State kept only when crash tracking is enabled.
#[derive(Debug)]
struct CrashState {
    /// The durable image: what survives a crash.
    durable: Box<[AtomicU64]>,
    /// Word indices written since they were last flushed.
    dirty: Mutex<HashSet<u64>>,
    /// Word indices flushed but not yet fenced. A real `CLWB` without a
    /// following `SFENCE` may or may not have reached the device; the strict
    /// [`Nvm::crash`] drops these, the lenient variant keeps them.
    pending: Mutex<HashSet<u64>>,
    /// Persistence-event tallies (for crash-point enumeration).
    events: EventCounters,
    /// The armed crash plan, if any.
    plan: Mutex<Option<ArmedPlan>>,
    /// Fast-path guard so unarmed runs skip the plan lock entirely.
    plan_armed: AtomicBool,
    /// Set once the armed plan has fired.
    tripped: AtomicBool,
    /// The post-crash image captured when the plan fired, until
    /// [`Nvm::apply_planned_crash`] installs it.
    frozen: Mutex<Option<Box<[u64]>>>,
}

/// An emulated byte-addressable persistent memory device.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Nvm {
    words: Box<[AtomicU64]>,
    crash_state: Option<CrashState>,
    timing: TimingModel,
    stats: NvmStats,
    /// Bytes flushed since the last fence; the fence's modeled cost covers
    /// exactly these bytes.
    unfenced_bytes: AtomicU64,
    /// Per-cache-line flush counts (wear), when enabled.
    wear: Option<Box<[std::sync::atomic::AtomicU32]>>,
    config: NvmConfig,
}

fn alloc_words(n: u64) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Nvm {
    /// Creates a zero-filled device.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero or not a multiple of 8.
    pub fn new(config: NvmConfig) -> Self {
        assert!(
            config.size_bytes > 0 && config.size_bytes.is_multiple_of(8),
            "NVM size must be a positive multiple of 8, got {}",
            config.size_bytes
        );
        let nwords = config.size_bytes / 8;
        let crash_state = config.crash_tracking.then(|| CrashState {
            durable: alloc_words(nwords),
            dirty: Mutex::new(HashSet::new()),
            pending: Mutex::new(HashSet::new()),
            events: EventCounters::default(),
            plan: Mutex::new(None),
            plan_armed: AtomicBool::new(false),
            tripped: AtomicBool::new(false),
            frozen: Mutex::new(None),
        });
        let wear = config.wear_tracking.then(|| {
            (0..config.size_bytes.div_ceil(CACHE_LINE))
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect()
        });
        Nvm {
            words: alloc_words(nwords),
            crash_state,
            timing: TimingModel::new(config.timing),
            stats: NvmStats::default(),
            unfenced_bytes: AtomicU64::new(0),
            wear,
            config,
        }
    }

    /// Zeroes all wear counters (e.g. after a load phase, so a measurement
    /// phase is accounted alone). No-op when wear tracking is off.
    pub fn wear_reset(&self) {
        if let Some(wear) = &self.wear {
            for w in wear.iter() {
                w.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Summarizes per-line wear (flush counts). Returns `None` unless the
    /// device was built with [`NvmConfig::with_wear_tracking`].
    pub fn wear_summary(&self) -> Option<WearSummary> {
        let wear = self.wear.as_ref()?;
        let mut max = 0u32;
        let mut total = 0u64;
        let mut touched = 0u64;
        for w in wear.iter() {
            let v = w.load(Ordering::Relaxed);
            if v > 0 {
                touched += 1;
                total += u64::from(v);
                max = max.max(v);
            }
        }
        Some(WearSummary {
            max_line_writes: max,
            total_line_writes: total,
            lines_touched: touched,
        })
    }

    /// Device capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.config.size_bytes
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// The device's timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Point-in-time copy of the device's write statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    #[inline]
    fn word_index(&self, offset: u64) -> u64 {
        assert!(
            offset.is_multiple_of(8),
            "word access must be 8-byte aligned, got offset {offset}"
        );
        let idx = offset / 8;
        assert!(
            idx < self.words.len() as u64,
            "offset {offset} out of device bounds ({} bytes)",
            self.config.size_bytes
        );
        idx
    }

    /// Reads the word at byte `offset` from the volatile layer.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of bounds.
    #[inline]
    pub fn read_word(&self, offset: u64) -> u64 {
        let idx = self.word_index(offset);
        self.words[idx as usize].load(Ordering::Relaxed)
    }

    /// Stores `val` at byte `offset`. The store is *not* durable until the
    /// covering cache line is flushed and fenced.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of bounds.
    #[inline]
    pub fn write_word(&self, offset: u64, val: u64) {
        self.store_word(offset, val);
        self.stats.add_words(1);
    }

    /// One word store: bounds check, crash-plan event, store, dirty
    /// tracking. The public callers bump `words_written` once per call.
    #[inline]
    fn store_word(&self, offset: u64, val: u64) {
        let idx = self.word_index(offset);
        self.note_event(CrashEventKind::Write);
        self.words[idx as usize].store(val, Ordering::Relaxed);
        if let Some(cs) = &self.crash_state {
            cs.dirty.lock().insert(idx);
        }
    }

    /// Reads `out.len()` consecutive words starting at byte `offset`.
    pub fn read_words(&self, offset: u64, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read_word(offset + 8 * i as u64);
        }
    }

    /// Writes `vals` as consecutive words starting at byte `offset`.
    pub fn write_words(&self, offset: u64, vals: &[u64]) {
        for (i, v) in vals.iter().enumerate() {
            self.store_word(offset + 8 * i as u64, *v);
        }
        self.stats.add_words(vals.len() as u64);
    }

    /// Writes every `(addr, val)` pair at byte offset `base + addr`, in
    /// order, then flushes each distinct cache line those stores touched
    /// exactly once — Reproduce's apply step. The result is the same as
    /// `write_word` + `flush(off, 8)` per pair, except that a line written
    /// several times is flushed, worn and charged to the next fence once.
    ///
    /// Every store and every line flush is still its own persistence event
    /// (so a [`CrashPlan`] can trip inside the batch); the statistics and
    /// the unfenced-byte tally are updated once per call.
    ///
    /// # Panics
    ///
    /// Panics if any offset is unaligned or out of bounds.
    pub fn apply_writes(&self, base: u64, writes: &[(u64, u64)]) {
        if writes.is_empty() {
            return;
        }
        let mut lines: Vec<u64> = Vec::with_capacity(writes.len());
        for &(addr, val) in writes {
            let off = base + addr;
            self.store_word(off, val);
            let line = off / CACHE_LINE;
            if lines.last() != Some(&line) {
                lines.push(line);
            }
        }
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            self.flush_lines(line, line);
        }
        let bytes = lines.len() as u64 * CACHE_LINE;
        self.stats.add_words(writes.len() as u64);
        self.stats.add_flush(bytes);
        self.unfenced_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Flushes the cache lines covering `[offset, offset + len)` toward the
    /// device (emulated `CLWB`). Durability still requires [`Nvm::fence`].
    pub fn flush(&self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first_line = offset / CACHE_LINE;
        let last_line = (offset + len - 1) / CACHE_LINE;
        self.flush_lines(first_line, last_line);
        let bytes = (last_line - first_line + 1) * CACHE_LINE;
        self.stats.add_flush(bytes);
        self.unfenced_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One flush event over lines `first_line..=last_line`: crash-plan
    /// event, wear, dirty → pending. The public callers account the
    /// flushed bytes once per call.
    fn flush_lines(&self, first_line: u64, last_line: u64) {
        self.note_event(CrashEventKind::Flush);
        if let Some(wear) = &self.wear {
            for line in first_line..=last_line {
                wear[line as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(cs) = &self.crash_state {
            let mut dirty = cs.dirty.lock();
            let mut pending = cs.pending.lock();
            let first_word = first_line * (CACHE_LINE / 8);
            let last_word = (last_line + 1) * (CACHE_LINE / 8);
            for idx in first_word..last_word.min(self.words.len() as u64) {
                if dirty.remove(&idx) {
                    pending.insert(idx);
                }
            }
        }
    }

    /// Orders all previous flushes (emulated `SFENCE`); on return everything
    /// flushed so far is durable. The modeled cost is
    /// `max(latency, unfenced_bytes / bandwidth)` per §5.1.
    pub fn fence(&self) {
        self.note_event(CrashEventKind::Fence);
        let bytes = self.unfenced_bytes.swap(0, Ordering::Relaxed);
        self.stats.add_fence();
        self.stats.add_persist(bytes);
        self.timing.delay_persist(bytes.max(1));
        if let Some(cs) = &self.crash_state {
            let mut pending = cs.pending.lock();
            for idx in pending.drain() {
                let v = self.words[idx as usize].load(Ordering::Relaxed);
                cs.durable[idx as usize].store(v, Ordering::Relaxed);
            }
        }
    }

    /// Flush + fence over one range: the paper's *persist* operation.
    pub fn persist(&self, offset: u64, len: u64) {
        self.flush(offset, len);
        self.fence();
    }

    /// Simulates a power failure: every word that was not durable (dirty or
    /// flushed-but-unfenced) reverts to its last durable value.
    ///
    /// A real power failure stops all execution at the same instant; this
    /// emulated one cannot stop other threads. Outcomes observed by threads
    /// that keep using the device *after* `crash` returns (including
    /// durability acknowledgements) belong to a timeline the hardware would
    /// never produce — crash-consistency tests should quiesce mutators
    /// before crashing (a DudeTM runtime stops with `DudeTm::abandon`), or
    /// ignore post-crash observations.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn crash(&self) {
        self.crash_impl(false);
    }

    /// Like [`Nvm::crash`], but flushed-yet-unfenced lines survive — the
    /// optimistic outcome real hardware may also produce. Useful for
    /// exploring both sides of the `CLWB`/`SFENCE` window in tests.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn crash_lenient(&self) {
        self.crash_impl(true);
    }

    fn crash_impl(&self, keep_pending: bool) {
        let cs = self
            .crash_state
            .as_ref()
            .expect("crash() requires NvmConfig::crash_tracking");
        let mut dirty = cs.dirty.lock();
        let mut pending = cs.pending.lock();
        if keep_pending {
            for idx in pending.drain() {
                let v = self.words[idx as usize].load(Ordering::Relaxed);
                cs.durable[idx as usize].store(v, Ordering::Relaxed);
            }
        }
        for idx in dirty.drain().chain(pending.drain()) {
            let v = cs.durable[idx as usize].load(Ordering::Relaxed);
            self.words[idx as usize].store(v, Ordering::Relaxed);
        }
        self.unfenced_bytes.store(0, Ordering::Relaxed);
    }

    /// Records one persistence event: tally it, and trip the armed crash
    /// plan if this is its Nth matching event. Called at the *entry* of
    /// `write_word`/`flush`/`fence`, so a tripped plan freezes the device
    /// state from just before the event took effect — the crash preempts it.
    #[inline]
    fn note_event(&self, kind: CrashEventKind) {
        let Some(cs) = &self.crash_state else {
            return;
        };
        let background = is_background_stage();
        cs.events.bump(kind, background);
        if !cs.plan_armed.load(Ordering::Acquire) || cs.tripped.load(Ordering::Relaxed) {
            return;
        }
        let guard = cs.plan.lock();
        let Some(armed) = guard.as_ref() else {
            return;
        };
        if armed.plan.event != kind {
            return;
        }
        let stage_matches = match armed.plan.stage {
            StageFilter::Any => true,
            StageFilter::Foreground => !background,
            StageFilter::Background => background,
        };
        if !stage_matches {
            return;
        }
        let nth = armed.matched.fetch_add(1, Ordering::Relaxed) + 1;
        if nth == armed.plan.trip_at && !cs.tripped.swap(true, Ordering::Relaxed) {
            self.freeze_crash_image(cs, armed.plan.torn_seed);
        }
    }

    /// Captures what the durable medium would hold if power failed right
    /// now. Strict mode (`torn_seed == None`) keeps only fenced words.
    /// Torn mode keeps every not-yet-durable word *except* those on one
    /// seed-chosen unflushed cache line.
    fn freeze_crash_image(&self, cs: &CrashState, torn_seed: Option<u64>) {
        let dirty = cs.dirty.lock();
        let pending = cs.pending.lock();
        let mut image: Box<[u64]> = cs
            .durable
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        if let Some(seed) = torn_seed {
            let words_per_line = CACHE_LINE / 8;
            let mut lines: Vec<u64> = dirty
                .iter()
                .chain(pending.iter())
                .map(|&w| w / words_per_line)
                .collect();
            lines.sort_unstable();
            lines.dedup();
            if !lines.is_empty() {
                let torn_line = lines[(splitmix64(seed) % lines.len() as u64) as usize];
                for &w in dirty.iter().chain(pending.iter()) {
                    if w / words_per_line != torn_line {
                        image[w as usize] = self.words[w as usize].load(Ordering::Relaxed);
                    }
                }
            }
        }
        drop(dirty);
        drop(pending);
        *cs.frozen.lock() = Some(image);
    }

    /// Arms `plan` on this device; the next matching events count toward
    /// its trigger. Replaces any previously armed plan and clears a
    /// previously tripped (but unapplied) crash image.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn arm_crash_plan(&self, plan: CrashPlan) {
        let cs = self
            .crash_state
            .as_ref()
            .expect("arm_crash_plan() requires NvmConfig::crash_tracking");
        let mut slot = cs.plan.lock();
        *cs.frozen.lock() = None;
        cs.tripped.store(false, Ordering::Relaxed);
        *slot = Some(ArmedPlan {
            plan,
            matched: AtomicU64::new(0),
        });
        cs.plan_armed.store(true, Ordering::Release);
    }

    /// Whether the armed crash plan has fired.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn crash_plan_tripped(&self) -> bool {
        let cs = self
            .crash_state
            .as_ref()
            .expect("crash_plan_tripped() requires NvmConfig::crash_tracking");
        cs.tripped.load(Ordering::Relaxed)
    }

    /// Installs the post-crash image frozen when the armed plan fired:
    /// both the volatile layer and the durable image become exactly the
    /// frozen state, all durability bookkeeping resets (as a fresh boot
    /// would see), and the plan disarms. Returns `false` — leaving the
    /// device untouched — if no plan tripped, e.g. the plan's index lay
    /// beyond the run's actual event count.
    ///
    /// Call only after the workload has quiesced; see [`Nvm::crash`] for
    /// why in-flight mutators and a simulated crash don't mix.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn apply_planned_crash(&self) -> bool {
        let cs = self
            .crash_state
            .as_ref()
            .expect("apply_planned_crash() requires NvmConfig::crash_tracking");
        // Lock order matches note_event (plan, then frozen, then the
        // durability sets): disarm first so no concurrent straggler can
        // race the image install.
        let mut plan = cs.plan.lock();
        let Some(image) = cs.frozen.lock().take() else {
            return false;
        };
        cs.plan_armed.store(false, Ordering::Relaxed);
        *plan = None;
        let mut dirty = cs.dirty.lock();
        let mut pending = cs.pending.lock();
        for (i, &v) in image.iter().enumerate() {
            self.words[i].store(v, Ordering::Relaxed);
            cs.durable[i].store(v, Ordering::Relaxed);
        }
        dirty.clear();
        pending.clear();
        self.unfenced_bytes.store(0, Ordering::Relaxed);
        true
    }

    /// Point-in-time persistence-event tallies (total and background-stage
    /// counts of writes, flushes and fences). A crash-point sweep first
    /// runs the workload un-armed to learn these counts, then re-runs it
    /// with a [`CrashPlan`] aimed at each index.
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn persistence_events(&self) -> PersistenceEvents {
        let cs = self
            .crash_state
            .as_ref()
            .expect("persistence_events() requires NvmConfig::crash_tracking");
        cs.events.snapshot()
    }

    /// Zeroes the persistence-event tallies (e.g. after a load phase).
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn reset_persistence_events(&self) {
        let cs = self
            .crash_state
            .as_ref()
            .expect("reset_persistence_events() requires NvmConfig::crash_tracking");
        cs.events.reset();
    }

    /// Number of words that are currently *not* durable (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if the device was created without crash tracking.
    pub fn volatile_word_count(&self) -> usize {
        let cs = self
            .crash_state
            .as_ref()
            .expect("volatile_word_count() requires NvmConfig::crash_tracking");
        cs.dirty.lock().len() + cs.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Nvm {
        Nvm::new(NvmConfig::for_testing(4096))
    }

    #[test]
    fn read_back_what_was_written() {
        let n = dev();
        n.write_word(0, 7);
        n.write_word(4088, 9);
        assert_eq!(n.read_word(0), 7);
        assert_eq!(n.read_word(4088), 9);
    }

    #[test]
    fn multiword_io() {
        let n = dev();
        n.write_words(64, &[1, 2, 3]);
        let mut out = [0u64; 3];
        n.read_words(64, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_access_panics() {
        dev().read_word(3);
    }

    #[test]
    #[should_panic(expected = "out of device bounds")]
    fn out_of_bounds_panics() {
        dev().write_word(4096, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_size_panics() {
        Nvm::new(NvmConfig::for_testing(12));
    }

    #[test]
    fn crash_loses_unflushed_store() {
        let n = dev();
        n.write_word(0, 42);
        n.crash();
        assert_eq!(n.read_word(0), 0);
    }

    #[test]
    fn crash_keeps_persisted_store() {
        let n = dev();
        n.write_word(0, 42);
        n.persist(0, 8);
        n.write_word(8, 43); // not persisted
        n.crash();
        assert_eq!(n.read_word(0), 42);
        assert_eq!(n.read_word(8), 0);
    }

    #[test]
    fn strict_crash_drops_flushed_but_unfenced() {
        let n = dev();
        n.write_word(0, 42);
        n.flush(0, 8);
        n.crash();
        assert_eq!(n.read_word(0), 0);
    }

    #[test]
    fn lenient_crash_keeps_flushed_but_unfenced() {
        let n = dev();
        n.write_word(0, 42);
        n.flush(0, 8);
        n.crash_lenient();
        assert_eq!(n.read_word(0), 42);
    }

    #[test]
    fn overwrite_after_persist_reverts_to_persisted_value() {
        let n = dev();
        n.write_word(0, 1);
        n.persist(0, 8);
        n.write_word(0, 2);
        n.crash();
        assert_eq!(n.read_word(0), 1);
    }

    #[test]
    fn flush_covers_whole_cache_lines() {
        let n = dev();
        // Two words on the same 64-byte line: flushing one flushes both.
        n.write_word(0, 1);
        n.write_word(56, 2);
        n.persist(0, 8);
        n.crash();
        assert_eq!(n.read_word(0), 1);
        assert_eq!(n.read_word(56), 2);
    }

    #[test]
    fn stats_count_operations() {
        let n = dev();
        n.write_word(0, 1);
        n.write_word(8, 2);
        n.persist(0, 16);
        let s = n.stats();
        assert_eq!(s.words_written, 2);
        assert_eq!(s.fences, 1);
        assert_eq!(s.persist_barriers, 1);
        assert_eq!(s.bytes_flushed, 64); // one cache line
    }

    #[test]
    fn volatile_word_count_tracks_pending_durability() {
        let n = dev();
        assert_eq!(n.volatile_word_count(), 0);
        n.write_word(0, 1);
        assert_eq!(n.volatile_word_count(), 1);
        n.persist(0, 8);
        assert_eq!(n.volatile_word_count(), 0);
    }

    #[test]
    fn crash_resets_unfenced_byte_accounting() {
        let n = dev();
        n.write_word(0, 1);
        n.flush(0, 8);
        n.crash();
        // A fence after crash covers zero new bytes.
        n.fence();
        assert_eq!(n.read_word(0), 0);
    }

    #[test]
    #[should_panic(expected = "crash_tracking")]
    fn crash_requires_tracking() {
        let n = Nvm::new(NvmConfig::for_benchmark(4096, TimingConfig::disabled()));
        n.crash();
    }

    #[test]
    fn wear_tracking_counts_line_flushes() {
        let n = Nvm::new(NvmConfig::for_testing(4096).with_wear_tracking());
        n.write_word(0, 1);
        n.persist(0, 8);
        n.write_word(8, 2); // same line
        n.persist(8, 8);
        n.write_word(256, 3); // different line
        n.persist(256, 8);
        let w = n.wear_summary().expect("wear enabled");
        assert_eq!(w.max_line_writes, 2);
        assert_eq!(w.lines_touched, 2);
        assert_eq!(w.total_line_writes, 3);
    }

    #[test]
    fn wear_reset_zeroes_counters() {
        let n = Nvm::new(NvmConfig::for_testing(4096).with_wear_tracking());
        n.write_word(0, 1);
        n.persist(0, 8);
        n.wear_reset();
        let w = n.wear_summary().unwrap();
        assert_eq!(w, WearSummary::default());
    }

    #[test]
    fn wear_summary_absent_when_disabled() {
        assert!(dev().wear_summary().is_none());
    }

    #[test]
    fn persistence_events_tally_by_stage() {
        let n = dev();
        n.write_word(0, 1);
        n.persist(0, 8); // one flush + one fence, foreground
        crate::set_background_stage(true);
        n.write_word(64, 2);
        n.persist(64, 8);
        crate::set_background_stage(false);
        let e = n.persistence_events();
        assert_eq!((e.writes, e.flushes, e.fences), (2, 2, 2));
        assert_eq!(
            (
                e.background_writes,
                e.background_flushes,
                e.background_fences
            ),
            (1, 1, 1)
        );
        assert_eq!(e.count(CrashEventKind::Flush, StageFilter::Foreground), 1);
        assert_eq!(e.count(CrashEventKind::Fence, StageFilter::Background), 1);
        assert_eq!(e.count(CrashEventKind::Write, StageFilter::Any), 2);
        n.reset_persistence_events();
        assert_eq!(n.persistence_events(), PersistenceEvents::default());
    }

    #[test]
    fn crash_plan_preempts_nth_fence() {
        let n = dev();
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, 2));
        n.write_word(0, 1);
        n.persist(0, 8); // fence #1: completes, word 0 durable
        n.write_word(64, 2);
        n.persist(64, 8); // fence #2: the plan preempts it
        assert!(n.crash_plan_tripped());
        // The live volatile layer is untouched until the image is applied.
        assert_eq!(n.read_word(64), 2);
        assert!(n.apply_planned_crash());
        assert_eq!(n.read_word(0), 1); // survived: fenced before the crash
        assert_eq!(n.read_word(64), 0); // lost: its fence was preempted
        assert_eq!(n.volatile_word_count(), 0);
    }

    #[test]
    fn crash_plan_preempts_nth_write() {
        let n = dev();
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Write, 2));
        n.write_word(0, 1);
        n.persist(0, 8);
        n.write_word(8, 2); // preempted
        assert!(n.apply_planned_crash());
        assert_eq!(n.read_word(0), 1);
        assert_eq!(n.read_word(8), 0);
    }

    #[test]
    fn crash_plan_past_event_count_never_trips() {
        let n = dev();
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, 100));
        n.write_word(0, 1);
        n.persist(0, 8);
        assert!(!n.crash_plan_tripped());
        assert!(!n.apply_planned_crash());
        assert_eq!(n.read_word(0), 1); // device untouched
    }

    #[test]
    fn crash_plan_stage_filter_selects_thread() {
        let n = dev();
        n.arm_crash_plan(
            CrashPlan::at_nth(CrashEventKind::Fence, 1).for_stage(StageFilter::Background),
        );
        n.write_word(0, 1);
        n.persist(0, 8); // foreground fence: not counted
        assert!(!n.crash_plan_tripped());
        crate::set_background_stage(true);
        n.write_word(64, 2);
        n.persist(64, 8); // background fence: trips (preempted)
        crate::set_background_stage(false);
        assert!(n.crash_plan_tripped());
        assert!(n.apply_planned_crash());
        assert_eq!(n.read_word(0), 1);
        assert_eq!(n.read_word(64), 0);
    }

    #[test]
    fn torn_crash_drops_exactly_one_unflushed_line() {
        let n = dev();
        // Three dirty lines, none flushed; the torn crash keeps two.
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, 1).with_torn_line(7));
        n.write_word(0, 10);
        n.write_word(64, 11);
        n.write_word(128, 12);
        n.fence(); // preempted by the plan
        assert!(n.apply_planned_crash());
        let survivors: Vec<u64> = [0u64, 64, 128]
            .iter()
            .filter(|&&off| n.read_word(off) != 0)
            .copied()
            .collect();
        assert_eq!(survivors.len(), 2, "exactly one line must be torn");
    }

    #[test]
    fn torn_choice_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<u64> {
            let n = dev();
            n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, 1).with_torn_line(seed));
            n.write_word(0, 10);
            n.write_word(64, 11);
            n.write_word(128, 12);
            n.fence();
            assert!(n.apply_planned_crash());
            (0..3).map(|i| n.read_word(i * 64)).collect()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn rearming_clears_previous_trip() {
        let n = dev();
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Write, 1));
        n.write_word(0, 1);
        assert!(n.crash_plan_tripped());
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Write, 5));
        assert!(!n.crash_plan_tripped());
        assert!(!n.apply_planned_crash(), "old frozen image must be gone");
    }

    #[test]
    #[should_panic(expected = "crash_tracking")]
    fn crash_plan_requires_tracking() {
        let n = Nvm::new(NvmConfig::for_benchmark(4096, TimingConfig::disabled()));
        n.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, 1));
    }

    /// A Reproduce-shaped write set: repeated addresses (0, 8), several
    /// words on one line, and two further lines. At base 64 the offsets
    /// cover lines 1, 2 and 4.
    const BATCH: [(u64, u64); 7] = [(0, 1), (8, 2), (0, 3), (56, 4), (64, 5), (200, 6), (8, 7)];
    const BATCH_BASE: u64 = 64;
    const BATCH_LINES: u64 = 3;

    /// The per-word sequence [`Nvm::apply_writes`] replaces.
    fn apply_per_word(n: &Nvm, base: u64, writes: &[(u64, u64)]) {
        for &(addr, val) in writes {
            n.write_word(base + addr, val);
            n.flush(base + addr, 8);
        }
    }

    fn image(n: &Nvm) -> Vec<u64> {
        let mut out = vec![0u64; (n.size_bytes() / 8) as usize];
        n.read_words(0, &mut out);
        out
    }

    #[test]
    fn apply_writes_matches_per_word_sequence() {
        let batched = Nvm::new(NvmConfig::for_testing(4096).with_wear_tracking());
        let per_word = Nvm::new(NvmConfig::for_testing(4096).with_wear_tracking());
        batched.apply_writes(BATCH_BASE, &BATCH);
        apply_per_word(&per_word, BATCH_BASE, &BATCH);
        assert_eq!(image(&batched), image(&per_word));
        let (b, p) = (batched.stats(), per_word.stats());
        assert_eq!(b.words_written, p.words_written);
        assert_eq!(b.words_written, BATCH.len() as u64);
        // One flush per distinct line, not one per word.
        assert_eq!(b.bytes_flushed, 64 * BATCH_LINES);
        assert_eq!(p.bytes_flushed, 64 * BATCH.len() as u64);
        // The same lines wear; the batch wears each of them once.
        let (bw, pw) = (
            batched.wear_summary().unwrap(),
            per_word.wear_summary().unwrap(),
        );
        assert_eq!(bw.lines_touched, pw.lines_touched);
        assert_eq!(bw.lines_touched, BATCH_LINES);
        assert_eq!(bw.total_line_writes, BATCH_LINES);
        assert_eq!(bw.max_line_writes, 1);
        let be = batched.persistence_events();
        assert_eq!((be.writes, be.flushes), (BATCH.len() as u64, BATCH_LINES));
        // Both leave every written word flushed: one fence makes the same
        // image durable.
        batched.fence();
        per_word.fence();
        batched.crash();
        per_word.crash();
        assert_eq!(image(&batched), image(&per_word));
        assert_eq!(batched.read_word(BATCH_BASE), 3);
        assert_eq!(batched.read_word(BATCH_BASE + 8), 7);
    }

    #[test]
    fn apply_writes_charges_the_next_fence_per_distinct_line() {
        let n = dev();
        n.apply_writes(BATCH_BASE, &BATCH);
        n.fence();
        assert_eq!(n.stats().bytes_persisted, 64 * BATCH_LINES);
        n.apply_writes(BATCH_BASE, &[]);
        assert_eq!(n.stats().bytes_flushed, 64 * BATCH_LINES);
    }

    #[test]
    fn crash_plan_trips_inside_a_batch() {
        for (kind, nth) in [(CrashEventKind::Write, 4), (CrashEventKind::Flush, 2)] {
            let n = dev();
            n.write_word(BATCH_BASE, 9);
            n.persist(BATCH_BASE, 8);
            n.arm_crash_plan(CrashPlan::at_nth(kind, nth));
            n.apply_writes(BATCH_BASE, &BATCH);
            assert!(n.crash_plan_tripped(), "{kind:?} #{nth} inside the batch");
            assert!(n.apply_planned_crash());
            // Nothing of the batch was fenced: the earlier durable value
            // comes back and the rest of the batch is gone.
            assert_eq!(n.read_word(BATCH_BASE), 9);
            for &(addr, _) in &BATCH[1..] {
                if addr != 0 {
                    assert_eq!(n.read_word(BATCH_BASE + addr), 0, "{kind:?} addr {addr}");
                }
            }
        }
    }

    #[test]
    fn strict_crash_loses_an_unfenced_batch_and_keeps_a_fenced_one() {
        let before = dev();
        before.apply_writes(BATCH_BASE, &BATCH);
        before.crash();
        assert!(image(&before).iter().all(|&w| w == 0));

        let after = dev();
        after.apply_writes(BATCH_BASE, &BATCH);
        after.fence();
        after.crash();
        let expected = dev();
        apply_per_word(&expected, BATCH_BASE, &BATCH);
        assert_eq!(image(&after), image(&expected));
        assert_eq!(after.volatile_word_count(), 0);
    }

    #[test]
    fn write_words_counts_like_word_by_word_writes() {
        let n = dev();
        n.write_words(64, &[1, 2, 3]);
        n.write_words(128, &[]);
        let s = n.stats();
        assert_eq!(s.words_written, 3);
        assert_eq!(s.bytes_flushed, 0);
        assert_eq!(n.persistence_events().writes, 3);
        assert_eq!(n.volatile_word_count(), 3);
    }

    #[test]
    fn benchmark_mode_skips_tracking() {
        let n = Nvm::new(NvmConfig::for_benchmark(4096, TimingConfig::disabled()));
        n.write_word(0, 5);
        n.persist(0, 8);
        assert_eq!(n.read_word(0), 5);
        assert_eq!(n.stats().persist_barriers, 1);
    }
}
