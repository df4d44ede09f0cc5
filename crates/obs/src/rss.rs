//! Process RSS lookups.
//!
//! On Linux these read `/proc/self/status` — `VmHWM` (the high-water
//! mark of resident set size) and `VmRSS` (the current resident set).
//! Elsewhere there is no portable equivalent in std, so the lookups
//! report `None` and callers simply omit the gauge. `VmHWM` never goes
//! down, so A/B memory comparisons inside one process must sample
//! `current_rss_bytes` instead.

#[cfg(target_os = "linux")]
fn status_field_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            // Format: "VmRSS:     12345 kB"
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(target_os = "linux")]
pub fn peak_rss_bytes() -> Option<u64> {
    status_field_bytes("VmHWM:")
}

/// The process's resident set size right now (`VmRSS`).
#[cfg(target_os = "linux")]
pub fn current_rss_bytes() -> Option<u64> {
    status_field_bytes("VmRSS:")
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_bytes() -> Option<u64> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn current_rss_bytes() -> Option<u64> {
    None
}

/// With recording on, set the gauge `process.hwm_mb{phase="<phase>"}`
/// to the process's peak RSS so far, in MB. Each build phase and the
/// snapshot writer call it as they end, so the gauges rise phase by
/// phase, and the first phase whose gauge reads the final value is the
/// one that set the high-water mark.
pub fn record_hwm(phase: &str) {
    if !crate::is_enabled() {
        return;
    }
    if let Some(bytes) = peak_rss_bytes() {
        crate::gauge_set(
            &crate::labeled("process.hwm_mb", &[("phase", phase)]),
            bytes as f64 / 1e6,
        );
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = super::peak_rss_bytes().expect("VmHWM present in /proc/self/status");
        assert!(rss > 0);
    }

    #[test]
    fn current_rss_is_positive_and_at_most_peak() {
        let cur = super::current_rss_bytes().expect("VmRSS present in /proc/self/status");
        let peak = super::peak_rss_bytes().expect("VmHWM present in /proc/self/status");
        assert!(cur > 0);
        assert!(cur <= peak);
    }
}
