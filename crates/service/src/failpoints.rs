//! Fault-injection points for the durability layer.
//!
//! A fail point is a named site in the code (`"wal.append"`, `"wal.sync"`,
//! `"snapshot.write"`, `"durable.mid_ingest"`, `"server.lock"`,
//! `"reactor.job"`) that tests can *arm* with an [`Action`]: return an
//! injected I/O error, panic (a stand-in for the process dying at exactly
//! that point), tear a write in half, or stall for a fixed duration (a
//! stand-in for a pathologically slow operation, used to exhaust the
//! admission queue deterministically in overload tests). The sites call
//! [`hit`] and interpret the returned action.
//!
//! The registry only exists in debug builds (`cfg!(debug_assertions)`):
//! release builds const-fold every [`hit`] to [`Action::Off`], so the
//! benchmarked hot paths carry no branch and no lock. Debug/test builds pay
//! one short mutex acquisition per armed-or-not lookup, which is noise next
//! to the file I/O the sites wrap.
//!
//! The registry is process-global, so tests that arm fail points must not
//! run interleaved with each other: take [`exclusive`] for the duration of
//! the test and finish with [`clear_all`] (the guard does not auto-clear).

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex, MutexGuard};

/// What an armed fail point does when its site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Not armed: the site proceeds normally.
    Off,
    /// The site fails with an injected `io::Error`.
    Error,
    /// The site panics — simulating the process dying right there.
    Panic,
    /// Write sites persist only a prefix of the record, then fail —
    /// simulating a crash mid-write (a torn tail).
    TornWrite,
    /// The site sleeps for the given duration, then proceeds normally —
    /// simulating a pathologically slow operation without failing it.
    Stall(std::time::Duration),
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    action: Action,
    /// Hits to let through unharmed before triggering.
    skip: u64,
    /// Disarm after triggering once?
    one_shot: bool,
}

static REGISTRY: LazyLock<Mutex<HashMap<&'static str, Armed>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Serialises fail-point tests: the registry is process-global, so two
/// tests arming sites concurrently would see each other's faults.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global fail-point test lock. Poison-tolerant: a previous test
/// panicking (often deliberately, via [`Action::Panic`]) must not wedge the
/// rest of the suite.
pub fn exclusive() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> MutexGuard<'static, HashMap<&'static str, Armed>> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `site` to trigger `action` exactly once, after letting `skip` hits
/// through unharmed. No-op in release builds.
pub fn fail_once(site: &'static str, action: Action, skip: u64) {
    if cfg!(debug_assertions) {
        registry().insert(
            site,
            Armed {
                action,
                skip,
                one_shot: true,
            },
        );
    }
}

/// Arms `site` to trigger `action` on every hit until cleared. No-op in
/// release builds.
pub fn fail_always(site: &'static str, action: Action) {
    if cfg!(debug_assertions) {
        registry().insert(
            site,
            Armed {
                action,
                skip: 0,
                one_shot: false,
            },
        );
    }
}

/// Disarms every fail point.
pub fn clear_all() {
    if cfg!(debug_assertions) {
        registry().clear();
    }
}

/// Reports the action `site` should take right now, consuming one hit of
/// its arming. Always [`Action::Off`] in release builds — the
/// `cfg!(debug_assertions)` test const-folds the whole lookup away.
#[inline]
pub fn hit(site: &'static str) -> Action {
    if cfg!(debug_assertions) {
        registry_hit(site)
    } else {
        Action::Off
    }
}

fn registry_hit(site: &'static str) -> Action {
    let mut reg = registry();
    let Some(armed) = reg.get_mut(site) else {
        return Action::Off;
    };
    if armed.skip > 0 {
        armed.skip -= 1;
        return Action::Off;
    }
    let action = armed.action;
    if armed.one_shot {
        reg.remove(site);
    }
    action
}

/// The standard interpretation of an armed site that can only fail or
/// panic (no torn-write semantics): returns the injected error, panics,
/// sleeps through an armed stall, or lets the caller proceed.
/// [`Action::TornWrite`] at such a site degrades to a plain error.
pub fn check(site: &'static str) -> std::io::Result<()> {
    match hit(site) {
        Action::Off => Ok(()),
        Action::Error | Action::TornWrite => {
            Err(std::io::Error::other(format!("failpoint {site}")))
        }
        Action::Panic => panic!("failpoint {site}"),
        Action::Stall(for_how_long) => {
            std::thread::sleep(for_how_long);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_points_trigger_after_skips_and_disarm_when_one_shot() {
        let _guard = exclusive();
        clear_all();

        if !cfg!(debug_assertions) {
            // Release builds have no registry: arming is a no-op and every
            // site proceeds.
            fail_once("test.site", Action::Error, 0);
            fail_always("test.other", Action::Panic);
            for site in ["test.site", "test.other", "test.unarmed"] {
                assert_eq!(hit(site), Action::Off);
                assert!(check(site).is_ok());
            }
            return;
        }

        fail_once("test.site", Action::Error, 2);
        assert_eq!(hit("test.site"), Action::Off);
        assert_eq!(hit("test.site"), Action::Off);
        assert_eq!(hit("test.site"), Action::Error);
        // One-shot: disarmed after triggering.
        assert_eq!(hit("test.site"), Action::Off);

        fail_always("test.site", Action::TornWrite);
        assert_eq!(hit("test.site"), Action::TornWrite);
        assert_eq!(hit("test.site"), Action::TornWrite);
        clear_all();
        assert_eq!(hit("test.site"), Action::Off);

        assert!(check("test.unarmed").is_ok());
        fail_once("test.site", Action::Error, 0);
        assert!(check("test.site").is_err());
    }
}
