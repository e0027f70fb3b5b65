//! Deterministic fault injection for chaos tests — the std-only,
//! offline substitute for the `fail` crate.
//!
//! Production code declares **named trigger points** (e.g.
//! `"engine.build_pipeline"`) and calls [`check`] at each one; tests
//! **arm** a point with an action — [`FailAction::Panic`],
//! [`FailAction::Delay`], [`FailAction::Error`], or the IO-shaped
//! [`FailAction::ReturnErr`] — through [`arm`] /
//! [`arm_times`], exercise the failure path, and disarm by dropping the
//! returned [`FailGuard`]. Arming is deterministic and explicit: nothing
//! fires unless a test armed it, and `arm_times(_, _, n)` fires exactly
//! `n` times before going inert, so "panic the *first* build, let the
//! retry succeed" is one line of test setup.
//!
//! Every site also keeps cumulative [`SiteStats`] — arms, disarms, and
//! fires — that survive disarming, so a chaos suite can assert "this
//! fault actually triggered k times across the run" after its guards
//! have dropped.
//!
//! Cost discipline
//! ---------------
//! The hot path of an unarmed process is a single relaxed atomic load
//! ([`check`] returns immediately while nothing is armed). Downstream
//! crates additionally gate their `check` calls behind a `failpoints`
//! cargo feature, so `--no-default-features` builds compile the sites out
//! entirely. The registry itself is a process-wide mutex-guarded map —
//! chaos tests that arm points serialise themselves (each test holds a
//! test-local lock for its whole body) because the registry is shared by
//! every thread of the test process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What an armed trigger point does when reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the trigger point (exercises unwind / isolation paths).
    Panic,
    /// Sleep this long, then continue normally (exercises deadline and
    /// slow-peer paths).
    Delay(Duration),
    /// Return [`InjectedFailure`] from [`check`] (exercises typed error
    /// paths without unwinding).
    Error,
    /// Return [`InjectedFailure`] carrying an [`std::io::ErrorKind`], so
    /// IO call sites (snapshot write/fsync/load) can surface a precise
    /// recoverable `io::Error` instead of panicking and poisoning worker
    /// threads. Convert with `std::io::Error::from(failure)`.
    ReturnErr(std::io::ErrorKind),
}

/// The typed error [`check`] returns at a point armed with
/// [`FailAction::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFailure {
    /// Name of the trigger point that fired.
    pub site: &'static str,
    /// The IO error kind carried by [`FailAction::ReturnErr`]; `None`
    /// when the plain [`FailAction::Error`] fired.
    pub kind: Option<std::io::ErrorKind>,
}

impl InjectedFailure {
    /// A plain (non-IO) injected failure at `site`.
    pub fn at(site: &'static str) -> Self {
        InjectedFailure { site, kind: None }
    }
}

impl std::fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            Some(kind) => write!(
                f,
                "injected failure at failpoint `{}` ({kind:?})",
                self.site
            ),
            None => write!(f, "injected failure at failpoint `{}`", self.site),
        }
    }
}

impl std::error::Error for InjectedFailure {}

impl From<InjectedFailure> for std::io::Error {
    fn from(failure: InjectedFailure) -> Self {
        let kind = failure.kind.unwrap_or(std::io::ErrorKind::Other);
        std::io::Error::new(kind, failure.to_string())
    }
}

#[derive(Debug)]
struct Armed {
    action: FailAction,
    /// Fires left before the point goes inert; `None` = unlimited.
    remaining: Option<usize>,
    /// Times this point fired since arming (inert hits don't count).
    hits: u64,
}

/// Cumulative per-site counters that survive disarming (unlike
/// [`hits`], which resets with each arm). `fires` counts actual
/// triggers — inert hits don't count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Times the site was armed (re-arms included).
    pub arms: u64,
    /// Times the site was disarmed (guard drops on an armed site).
    pub disarms: u64,
    /// Times the site fired an action since process start.
    pub fires: u64,
}

#[derive(Debug, Default)]
struct Registry {
    armed: HashMap<&'static str, Armed>,
    stats: HashMap<&'static str, SiteStats>,
}

/// Number of armed entries, mirrored out of the registry so [`check`] can
/// skip the lock entirely while nothing is armed.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn sync_active(reg: &Registry) {
    ACTIVE.store(reg.armed.len(), Ordering::Release);
}

/// Arms `name` with `action` until the returned guard drops. Re-arming an
/// already-armed name replaces its action and resets its counters.
#[must_use = "dropping the guard disarms the failpoint immediately"]
pub fn arm(name: &'static str, action: FailAction) -> FailGuard {
    arm_inner(name, action, None)
}

/// Arms `name` to fire exactly `times` times, then go inert (still armed,
/// never firing) until the guard drops.
#[must_use = "dropping the guard disarms the failpoint immediately"]
pub fn arm_times(name: &'static str, action: FailAction, times: usize) -> FailGuard {
    arm_inner(name, action, Some(times))
}

fn arm_inner(name: &'static str, action: FailAction, remaining: Option<usize>) -> FailGuard {
    let mut reg = registry();
    reg.armed.insert(
        name,
        Armed {
            action,
            remaining,
            hits: 0,
        },
    );
    reg.stats.entry(name).or_default().arms += 1;
    sync_active(&reg);
    FailGuard { name }
}

/// Disarms `name` (no-op when not armed): what dropping its
/// [`FailGuard`] does.
fn disarm(name: &str) {
    let mut reg = registry();
    if reg.armed.remove(name).is_some() {
        if let Some(stats) = reg.stats.get_mut(name) {
            stats.disarms += 1;
        }
    }
    sync_active(&reg);
}

/// Times `name` fired since it was last armed (`0` when never armed).
pub fn hits(name: &str) -> u64 {
    registry().armed.get(name).map_or(0, |a| a.hits)
}

/// Cumulative arm/disarm/fire counters for `name` since process start.
/// Unlike [`hits`], these survive disarming and re-arming.
pub fn site_stats(name: &str) -> SiteStats {
    registry().stats.get(name).copied().unwrap_or_default()
}

/// The trigger point call production code places at a named site.
///
/// Unarmed (the overwhelmingly common case): one relaxed atomic load,
/// then `Ok(())`. Armed: [`FailAction::Panic`] panics, \
/// [`FailAction::Delay`] sleeps then returns `Ok(())`, and
/// [`FailAction::Error`] returns `Err(InjectedFailure)` for the caller's
/// typed error path ([`FailAction::ReturnErr`] likewise, with its
/// [`std::io::ErrorKind`] attached). A point armed with [`arm_times`] that has exhausted
/// its fires is inert and returns `Ok(())`.
pub fn check(name: &'static str) -> Result<(), InjectedFailure> {
    if ACTIVE.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    let action = {
        let mut reg = registry();
        let Some(armed) = reg.armed.get_mut(name) else {
            return Ok(());
        };
        match &mut armed.remaining {
            Some(0) => return Ok(()), // exhausted → inert
            Some(n) => *n -= 1,
            None => {}
        }
        armed.hits += 1;
        let action = armed.action;
        reg.stats.entry(name).or_default().fires += 1;
        action
    };
    // Act outside the registry lock so a panicking or sleeping site never
    // blocks other threads' checks.
    match action {
        FailAction::Panic => panic!("failpoint `{name}`: injected panic"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FailAction::Error => Err(InjectedFailure {
            site: name,
            kind: None,
        }),
        FailAction::ReturnErr(kind) => Err(InjectedFailure {
            site: name,
            kind: Some(kind),
        }),
    }
}

/// Disarms its failpoint on drop, so a panicking test never leaks an
/// armed point into its siblings.
#[derive(Debug)]
pub struct FailGuard {
    name: &'static str,
}

impl FailGuard {
    /// The armed point's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        disarm(self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The registry is process-global; these tests serialise on one lock
    /// so `cargo test` parallelism cannot interleave arming.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_check_is_ok() {
        let _s = serial();
        assert_eq!(check("tests.nothing"), Ok(()));
        assert_eq!(hits("tests.nothing"), 0);
    }

    #[test]
    fn error_action_returns_typed_failure_until_guard_drops() {
        let _s = serial();
        let guard = arm("tests.err", FailAction::Error);
        assert_eq!(check("tests.err"), Err(InjectedFailure::at("tests.err")));
        assert_eq!(
            check("tests.err").unwrap_err().to_string(),
            "injected failure at failpoint `tests.err`"
        );
        assert_eq!(hits("tests.err"), 2);
        drop(guard);
        assert_eq!(check("tests.err"), Ok(()));
        assert_eq!(hits("tests.err"), 0, "disarm clears counters");
    }

    #[test]
    fn arm_times_goes_inert_after_n_fires() {
        let _s = serial();
        let _g = arm_times("tests.twice", FailAction::Error, 2);
        assert!(check("tests.twice").is_err());
        assert!(check("tests.twice").is_err());
        assert!(check("tests.twice").is_ok(), "third hit is inert");
        assert!(check("tests.twice").is_ok());
        assert_eq!(hits("tests.twice"), 2);
    }

    #[test]
    fn panic_action_panics_and_guard_disarms_on_unwind() {
        let _s = serial();
        let result = std::panic::catch_unwind(|| {
            let _g = arm("tests.panic", FailAction::Panic);
            let _ = check("tests.panic");
        });
        assert!(result.is_err());
        // The guard dropped during the unwind: the point is disarmed.
        assert_eq!(check("tests.panic"), Ok(()));
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _s = serial();
        let _g = arm("tests.delay", FailAction::Delay(Duration::from_millis(30)));
        let t0 = Instant::now();
        assert_eq!(check("tests.delay"), Ok(()));
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn rearming_replaces_action_and_resets_counters() {
        let _s = serial();
        let _g1 = arm("tests.rearm", FailAction::Error);
        assert!(check("tests.rearm").is_err());
        let _g2 = arm_times("tests.rearm", FailAction::Delay(Duration::ZERO), 1);
        assert_eq!(check("tests.rearm"), Ok(()), "replaced by a delay");
        assert_eq!(hits("tests.rearm"), 1, "counters reset by re-arm");
    }

    #[test]
    fn return_err_carries_an_io_kind_without_unwinding() {
        let _s = serial();
        use std::io::ErrorKind;
        let before = site_stats("tests.io");
        {
            let _g = arm("tests.io", FailAction::ReturnErr(ErrorKind::WouldBlock));
            let failure = check("tests.io").unwrap_err();
            assert_eq!(failure.site, "tests.io");
            assert_eq!(failure.kind, Some(ErrorKind::WouldBlock));
            assert!(failure.to_string().contains("WouldBlock"));
            // The whole point: converts to a recoverable io::Error instead
            // of panicking inside an IO routine.
            let io: std::io::Error = failure.into();
            assert_eq!(io.kind(), ErrorKind::WouldBlock);
        }
        assert_eq!(check("tests.io"), Ok(()), "guard drop disarms");
        // Per-site stats cover ReturnErr fires exactly like other actions.
        let after = site_stats("tests.io");
        assert_eq!(after.arms, before.arms + 1);
        assert_eq!(after.disarms, before.disarms + 1);
        assert_eq!(after.fires, before.fires + 1);
    }

    #[test]
    fn plain_error_converts_to_an_other_io_error() {
        let io: std::io::Error = InjectedFailure::at("tests.convert").into();
        assert_eq!(io.kind(), std::io::ErrorKind::Other);
    }

    #[test]
    fn site_stats_survive_disarm_and_rearm() {
        let _s = serial();
        let before = site_stats("tests.stats");
        {
            let _g = arm("tests.stats", FailAction::Error);
            assert!(check("tests.stats").is_err());
            assert!(check("tests.stats").is_err());
        }
        assert_eq!(hits("tests.stats"), 0, "per-arming hits reset on disarm");
        {
            let _g = arm_times("tests.stats", FailAction::Error, 1);
            assert!(check("tests.stats").is_err());
            assert!(check("tests.stats").is_ok(), "inert hits don't fire");
        }
        let after = site_stats("tests.stats");
        assert_eq!(after.arms, before.arms + 2);
        assert_eq!(after.disarms, before.disarms + 2);
        assert_eq!(after.fires, before.fires + 3);
        // Disarming an unarmed site is not counted.
        disarm("tests.stats");
        assert_eq!(site_stats("tests.stats").disarms, after.disarms);
    }
}
