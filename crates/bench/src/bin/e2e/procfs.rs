//! Readers for the two `/proc` files the benchmark samples: a process's
//! peak resident set (`VmHWM` in `/proc/<pid>/status`) and its CPU time
//! (`/proc/<pid>/stat`).

/// Clock ticks per second of the `stat` CPU fields. Linux fixes this
/// user-visible `USER_HZ` at 100 on every mainstream architecture.
pub const TICKS_PER_SEC: f64 = 100.0;

/// CPU time of a process and of its waited-for children, in ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
    pub cutime: u64,
    pub cstime: u64,
}

impl CpuTicks {
    pub fn own_ms(&self) -> f64 {
        (self.utime + self.stime) as f64 * 1e3 / TICKS_PER_SEC
    }

    pub fn children_ms(&self) -> f64 {
        (self.cutime + self.cstime) as f64 * 1e3 / TICKS_PER_SEC
    }
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// The CPU fields of `/proc/<pid>/stat`. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from its closing
/// parenthesis: `utime` is field 14 of the man page.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field n sits at index n - 3.
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuTicks {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// Peak resident set of a live process in kB; `None` once it has exited.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// CPU ticks of `pid`, or of this process when `None`.
pub fn cpu_ticks(pid: Option<u32>) -> Option<CpuTicks> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_owned(),
    };
    parse_stat(&std::fs::read_to_string(path).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_canned_status() {
        let status = "Name:\tsoctam-serve\nState:\tS (sleeping)\nVmPeak:\t  812340 kB\n\
                      VmSize:\t  812340 kB\nVmHWM:\t   47212 kB\nVmRSS:\t   45100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(47_212));
        // A zombie's status has no memory lines.
        assert_eq!(parse_vm_hwm_kb("Name:\tsoctam\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn reads_cpu_fields_from_canned_stat() {
        // A command name with spaces and a parenthesis must not shift
        // the fields.
        let stat = "4242 (soc tam) x) S 1 4242 4242 0 -1 4194560 1043 0 0 0 \
                    731 52 19 7 20 0 3 0 123456 812340000 11803 18446744073709551615";
        assert_eq!(
            parse_stat(stat),
            Some(CpuTicks {
                utime: 731,
                stime: 52,
                cutime: 19,
                cstime: 7,
            })
        );
        let ticks = parse_stat(stat).unwrap();
        assert_eq!(ticks.own_ms(), 7830.0);
        assert_eq!(ticks.children_ms(), 260.0);
        assert_eq!(parse_stat("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_ticks(None).is_some());
        assert!(vm_hwm_kb(std::process::id()).is_some_and(|kb| kb > 0));
    }
}
