//! What the host charges this process in memory, read from `/proc/self`
//! (Linux only, like the rest of the repo's vproc engine).

/// The value, in kB, of the `/proc/self/status` line that starts with `key`.
fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}

/// Peak resident set of this process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

/// Current resident set of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}
