//! The host stamp every output carries, the process's peak memory, and
//! the one-CPU guard the service workloads run under.

use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub profile: String,
    pub commit: String,
}

fn proc_field(path: &str, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

impl Host {
    pub fn detect() -> Host {
        let commit = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            rustc: env!("DMXBENCH_RUSTC"),
            profile: format!(
                "{} (opt-level {}, debug {})",
                env!("DMXBENCH_PROFILE"),
                env!("DMXBENCH_OPT_LEVEL"),
                env!("DMXBENCH_DEBUG")
            ),
            commit,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc, self.cpu, self.rustc, self.profile, self.commit
        )
    }
}

/// `VmHWM` of this process in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it spawns while this
/// lives, to one CPU; the previous mask returns on drop. The service
/// workloads run under it: a lock service is a chain of thread
/// wake-ups, and on a small virtual machine waking a thread on the
/// *other*, idle vCPU costs several times the program's own work and
/// varies with the hypervisor's mood. On one CPU a hand-off is a context
/// switch, so the figures are the program's cost, not the host's.
pub struct OneCpu {
    /// The mask to put back, and the CPU chosen; `None` where affinity
    /// is unavailable (the run then goes unpinned and says so).
    saved: Option<(CpuSet, usize)>,
}

impl OneCpu {
    #[cfg(target_os = "linux")]
    pub fn pin() -> OneCpu {
        let mut old: CpuSet = [0; 16];
        // SAFETY: `old` is a live, writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut old) } != 0 {
            return OneCpu { saved: None };
        }
        // The highest allowed CPU: device interrupts favour the lowest.
        let Some(cpu) = (0..1024).rev().find(|c| old[c / 64] >> (c % 64) & 1 == 1) else {
            return OneCpu { saved: None };
        };
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of the size passed.
        let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
        OneCpu {
            saved: ok.then_some((old, cpu)),
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> OneCpu {
        OneCpu { saved: None }
    }

    /// The CPU the run is confined to.
    pub fn cpu(&self) -> Option<usize> {
        self.saved.map(|(_, cpu)| cpu)
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some((old, _)) = self.saved {
            // SAFETY: `old` is a live buffer of the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &old) };
        }
    }
}
