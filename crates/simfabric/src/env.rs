//! Warn-once environment-variable parsing.
//!
//! Every environment knob (`TRACESIM_THREADS`,
//! `TRACESIM_CLASSIFY_CACHE_MB`, `ADVISOR_CACHE_MB`) parses through
//! here, so none can be silently dropped. A silently ignored knob is
//! worse than a noisy one — the operator believes the setting took
//! effect — so this module centralizes the contract:
//!
//! * unset ⇒ `None` (the caller's default applies, no noise);
//! * set and parsable ⇒ `Some(value)` (range policy stays with the
//!   caller — e.g. `TRACESIM_THREADS=0` legitimately parses and is
//!   clamped downstream);
//! * set but unparsable ⇒ `None` **plus one warning per variable per
//!   process** naming the variable, the rejected value, and the
//!   expected grammar.
//!
//! The warn-once set is keyed by variable name, so distinct knobs each
//! get their own (single) warning.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Variables that have already warned this process.
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

/// Read `var` and parse it with `parse`. Unset returns `None`;
/// a set-but-unparsable value warns once (quoting the value and the
/// `expected` grammar) and also returns `None`, so the caller's
/// default applies either way.
pub fn parsed<T>(var: &str, expected: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => {
            warn_once(
                var,
                &format!("{var}: ignoring unparsable value {raw:?} (expected {expected})"),
            );
            None
        }
    }
}

/// Grammar shared by the counted knobs (`TRACESIM_THREADS`,
/// `TRACESIM_CLASSIFY_CACHE_MB`): a non-negative integer with
/// surrounding whitespace ignored. Zero parses — what zero *means*
/// (clamp to one, disable retention, …) is the caller's policy, not
/// the parser's.
pub fn parse_usize(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// A non-negative-integer environment variable, warn-once on garbage.
pub fn usize_var(var: &str) -> Option<usize> {
    parsed(var, "a non-negative integer", parse_usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_grammar_accepts_trimmed_integers_including_zero() {
        assert_eq!(parse_usize("8"), Some(8));
        assert_eq!(parse_usize("  0\n"), Some(0));
        assert_eq!(parse_usize(""), None);
        assert_eq!(parse_usize("eight"), None);
        assert_eq!(parse_usize("-1"), None);
        assert_eq!(parse_usize("3.5"), None);
    }

    #[test]
    fn warn_once_fires_once_per_key() {
        assert!(warn_once("test.env.key_a", "first"));
        assert!(!warn_once("test.env.key_a", "second"));
        assert!(warn_once("test.env.key_b", "different key still warns"));
    }

    #[test]
    fn parsed_reads_set_variables_and_warns_on_garbage() {
        // Env mutation is process-global; use names no other test touches.
        std::env::set_var("SIMFABRIC_ENV_TEST_GOOD", "17");
        assert_eq!(usize_var("SIMFABRIC_ENV_TEST_GOOD"), Some(17));
        std::env::remove_var("SIMFABRIC_ENV_TEST_GOOD");
        assert_eq!(usize_var("SIMFABRIC_ENV_TEST_GOOD"), None);

        std::env::set_var("SIMFABRIC_ENV_TEST_BAD", "lots");
        assert_eq!(usize_var("SIMFABRIC_ENV_TEST_BAD"), None);
        // The warning consumed the once-slot for this variable.
        assert!(!warn_once("SIMFABRIC_ENV_TEST_BAD", "again"));
        std::env::remove_var("SIMFABRIC_ENV_TEST_BAD");
    }
}
