//! Helpers shared by the integration tests (`mod common;`).

/// Cases per property: `default` in a plain (debug) run; CI's release
/// passes ask for more through proptest's usual `PROPTEST_CASES`, which
/// the vendored proptest does not read by itself.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
