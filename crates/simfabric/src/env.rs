//! Warn-once diagnostics.
//!
//! A condition that would repeat on every call — a replay backlog past
//! its bound, a classified artifact too large to cache — is reported
//! to stderr once per process, keyed by a name, so distinct conditions
//! each get their own (single) warning. The simulator reads no
//! environment variable: every budget is a constant.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Keys that have already warned this process.
fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Emit `msg` to stderr the first time `key` warns in this process.
/// Returns `true` when the message was actually printed, so callers
/// (and tests) can observe the once-ness.
pub fn warn_once(key: &str, msg: &str) -> bool {
    let mut set = warned().lock().expect("env warn set poisoned");
    let fresh = set.insert(key.to_string());
    if fresh {
        eprintln!("{msg}");
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_fires_once_per_key() {
        assert!(warn_once("test.env.key_a", "first"));
        assert!(!warn_once("test.env.key_a", "second"));
        assert!(warn_once("test.env.key_b", "different key still warns"));
    }
}
