//! Reading a process's CPU time and memory from `/proc` (Linux only).

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
pub const USER_HZ: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3; utime and stime are fields 14, 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// A `kB` line such as `VmHWM:    52344 kB` from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User plus system CPU time of process `pid`, in milliseconds.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (u, s) = parse_stat(&text)?;
    Some((u + s) as f64 * 1000.0 / USER_HZ)
}

/// Nanoseconds on a CPU: the first field of `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time of the calling thread, in milliseconds. Unlike `cpu_ms`, which
/// counts 10 ms clock ticks, it resolves a fraction of a second.
pub fn thread_cpu_ms() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(parse_schedstat_ns(&text)? as f64 / 1e6)
}

/// A `kB` field of `/proc/<pid>/status` (`pid` may be `self`).
pub fn status_kb(pid: &str, field: &str) -> Option<u64> {
    parse_status_kb(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        field,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_last_paren() {
        let text = "4242 (xtsim-serve) S 1 4242 4242 0 -1 4194560 1520 0 0 0 \
                    317 45 0 0 20 0 6 0 123456 98765432 13000 18446744073709551615";
        assert_eq!(parse_stat(text), Some((317, 45)));
        // A name with spaces and a ')' of its own must not shift fields.
        let odd = "7 (a) b (c) R 1 7 7 0 -1 0 0 0 0 0 12 34 0 0 20 0 1 0 0 0 0";
        assert_eq!(parse_stat(odd), Some((12, 34)));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn status_kb_fields() {
        let text = "Name:\txtsim-serve\nVmPeak:\t  120000 kB\nVmHWM:\t   52344 kB\n\
                    VmRSS:\t   50112 kB\nThreads:\t5\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(52344));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(50112));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        // A field that merely starts with the same letters is not a match.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("Threads:\t5\n", "Threads"), None);
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat_ns("124687 107172 2\n"), Some(124687));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn reads_own_process() {
        assert!(status_kb("self", "VmHWM").unwrap() > 0);
        assert!(cpu_ms("self").is_some());
        assert!(thread_cpu_ms().is_some());
    }
}
