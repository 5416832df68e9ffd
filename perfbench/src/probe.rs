//! Outside-in observation of the process: per-thread CPU from
//! `/proc/self/task/*/schedstat`, process CPU and peak memory from
//! `/proc/self`, and the in-memory span recorder of traced runs.

use std::collections::HashMap;
use std::fs;
use std::time::Instant;

/// Thread-name prefix of the benchmark's client threads.
pub const CLIENT_PREFIX: &str = "bench-client";
/// Thread-name prefix of the benchmark's helper threads (sampler,
/// watchdog).
pub const BENCH_PREFIX: &str = "bench-";

/// Where a thread's CPU time is booked. Runtime threads are grouped by the
/// name prefixes the runtime gives them (`/proc` truncates names to 15
/// bytes, so only prefixes are stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Closed-loop clients: the Perform step.
    Perform,
    /// Threads named `dude-persist*`.
    Persist,
    /// Threads named `dude-reproduce*`.
    Reproduce,
    /// The benchmark's own main, sampler and watchdog threads.
    Bench,
    /// Anything else, e.g. a renamed stage thread.
    Other,
}

impl Bucket {
    /// Every bucket.
    pub const ALL: [Bucket; 5] = [
        Bucket::Perform,
        Bucket::Persist,
        Bucket::Reproduce,
        Bucket::Bench,
        Bucket::Other,
    ];

    /// Classifies a thread by name; `main` marks the process's main thread.
    pub fn of(name: &str, main: bool) -> Bucket {
        if name.starts_with(CLIENT_PREFIX) {
            Bucket::Perform
        } else if name.starts_with("dude-persist") {
            Bucket::Persist
        } else if name.starts_with("dude-reproduce") {
            Bucket::Reproduce
        } else if main || name.starts_with(BENCH_PREFIX) {
            Bucket::Bench
        } else {
            Bucket::Other
        }
    }
}

/// Cumulative scheduler statistics of one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCpu {
    /// Kernel thread ID.
    pub tid: u32,
    /// Where its time is booked.
    pub bucket: Bucket,
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

fn read_task(dir: &str, tid: u32, pid: u32) -> Option<TaskCpu> {
    let (run_ns, wait_ns) = parse_schedstat(&fs::read_to_string(format!("{dir}/schedstat")).ok()?)?;
    let name = fs::read_to_string(format!("{dir}/comm")).ok()?;
    Some(TaskCpu {
        tid,
        bucket: Bucket::of(name.trim_end(), tid == pid),
        run_ns,
        wait_ns,
    })
}

/// Every thread of this process. Threads that exit mid-read are skipped.
pub fn read_tasks() -> Vec<TaskCpu> {
    let pid = std::process::id();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let tid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
        read_task(&format!("/proc/self/task/{tid}"), tid, pid)
    })
    .collect()
}

/// The calling thread's statistics (a thread reads its own before exiting,
/// so its last slice is not lost).
pub fn read_current_task() -> Option<TaskCpu> {
    let stat = fs::read_to_string("/proc/thread-self/stat").ok()?;
    let tid = stat.split_whitespace().next()?.parse().ok()?;
    read_task("/proc/thread-self", tid, std::process::id())
}

/// Process CPU time (user + system, every thread that ever ran) in
/// nanoseconds, at the kernel's 10 ms `USER_HZ` resolution.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

/// Peak resident set size of the process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kib| kib * 1024)
}

/// Per-bucket CPU over an interval: the latest reading of every thread
/// minus its reading at the interval start (0 for threads born inside it).
#[derive(Debug, Default)]
pub struct CpuLedger {
    start: HashMap<u32, (u64, u64)>,
    latest: HashMap<u32, TaskCpu>,
    process_start_ns: u64,
}

/// CPU booked to each bucket, plus the process total, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuSplit {
    /// `(on-CPU ns, runqueue-wait ns)` per bucket.
    pub buckets: HashMap<Bucket, (u64, u64)>,
    /// Process CPU over the same interval.
    pub process_ns: u64,
}

impl CpuSplit {
    /// On-CPU nanoseconds of one bucket.
    pub fn run_ns(&self, b: Bucket) -> u64 {
        self.buckets.get(&b).map_or(0, |v| v.0)
    }

    /// Runqueue-wait nanoseconds of one bucket.
    pub fn wait_ns(&self, b: Bucket) -> u64 {
        self.buckets.get(&b).map_or(0, |v| v.1)
    }

    /// Sum of the buckets' on-CPU time.
    pub fn total_run_ns(&self) -> u64 {
        Bucket::ALL.iter().map(|&b| self.run_ns(b)).sum()
    }
}

impl CpuLedger {
    /// Opens the interval with a reading of every thread.
    pub fn start() -> CpuLedger {
        let start = read_tasks()
            .into_iter()
            .map(|t| (t.tid, (t.run_ns, t.wait_ns)))
            .collect();
        CpuLedger {
            start,
            latest: HashMap::new(),
            process_start_ns: process_cpu_ns(),
        }
    }

    /// Records newer readings.
    pub fn update(&mut self, tasks: impl IntoIterator<Item = TaskCpu>) {
        for t in tasks {
            self.latest.insert(t.tid, t);
        }
    }

    /// Closes the interval with a final reading of every live thread.
    pub fn finish(mut self) -> CpuSplit {
        self.update(read_tasks());
        let process_ns = process_cpu_ns().saturating_sub(self.process_start_ns);
        let mut buckets: HashMap<Bucket, (u64, u64)> = HashMap::new();
        for t in self.latest.values() {
            let (run0, wait0) = self.start.get(&t.tid).copied().unwrap_or((0, 0));
            let e = buckets.entry(t.bucket).or_default();
            e.0 += t.run_ns.saturating_sub(run0);
            e.1 += t.wait_ns.saturating_sub(wait0);
        }
        CpuSplit {
            buckets,
            process_ns,
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span identifier; op spans carry their client in bits 40..48.
    pub id: u64,
    /// Identifier of the enclosing span (0 for a trial).
    pub parent: u64,
    /// The call the span wraps.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Span identifier of trial `trial`'s `slot`-th orchestration step.
pub fn step_id(trial: u64, slot: u64) -> u64 {
    (trial + 1) << 48 | slot
}

/// Span identifier of op `op` of client `client` in trial `trial`.
pub fn op_id(trial: u64, client: usize, op: u64) -> u64 {
    (trial + 1) << 48 | (client as u64 + 1) << 40 | op
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Renders spans as JSON lines: one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            s.name,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns.saturating_sub(s.start_ns)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_name_prefixes() {
        assert_eq!(Bucket::of("bench-client-0", false), Bucket::Perform);
        assert_eq!(Bucket::of("dude-persist-flu", false), Bucket::Persist);
        assert_eq!(Bucket::of("dude-persist-seq", false), Bucket::Persist);
        assert_eq!(Bucket::of("dude-reproduce", false), Bucket::Reproduce);
        assert_eq!(Bucket::of("dude-reproduce-s", false), Bucket::Reproduce);
        assert_eq!(Bucket::of("bench-sampler", false), Bucket::Bench);
        assert_eq!(Bucket::of("dude-perfbench", true), Bucket::Bench);
        assert_eq!(Bucket::of("dude-metrics", false), Bucket::Other);
    }

    #[test]
    fn reads_own_schedstat() {
        let me = read_current_task().expect("schedstat readable");
        assert!(read_tasks().iter().any(|t| t.tid == me.tid));
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn parses_schedstat_line() {
        assert_eq!(
            parse_schedstat("26028866 1162927 22\n"),
            Some((26028866, 1162927))
        );
        assert_eq!(parse_schedstat("garbage"), None);
    }
}
