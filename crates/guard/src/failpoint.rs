//! Deterministic and seeded-probabilistic fault injection.
//!
//! A failpoint is a named site (`"lanczos.restart"`, `"par.worker"`, …) that
//! the instrumented code hits via [`fail_point`] (usually indirectly through
//! [`crate::checkpoint`]). Armed failpoints come from the
//! `BOOTES_FAILPOINTS` environment variable or programmatically via
//! [`set_failpoints`] / [`ScopedFailpoints::arm`]; the spec grammar is
//!
//! ```text
//! spec     := entry (',' entry)*
//! entry    := site '=' action trigger?
//! action   := 'err' | 'panic' | 'kill' | 'delay:' N 'ms'
//! trigger  := '@' N          (fire exactly on the Nth hit, 1-based)
//!           | '%' P          (fire each hit with probability P in (0, 1])
//! ```
//!
//! `site=err@3` injects [`GuardError::Injected`] on exactly the 3rd hit of
//! `site` and never again; `site=err` fires on *every* hit. `panic` actions
//! panic instead, exercising the `catch_unwind` isolation boundaries. `kill`
//! aborts the process without unwinding (no destructors, no cleanup — the
//! in-process equivalent of SIGKILL), which is how the chaos harness drills
//! crash-mid-write recovery. `delay:25ms` parks the hitting thread for 25 ms
//! and then succeeds — it widens race windows (a write parked between
//! `fs::write` and `fs::rename` is an easy SIGKILL target) without changing
//! any result.
//!
//! Probabilistic triggers draw from a *seeded per-entry* generator: entry
//! `i` for site `s` uses a SplitMix64 stream seeded with
//! `global_seed ⊕ fnv1a(s) ⊕ i`, where the global seed comes from
//! [`set_failpoint_seed`] or the `BOOTES_FAILPOINT_SEED` environment
//! variable (default 0). For a fixed seed the k-th hit of an entry always
//! makes the same fire/skip decision, so a `(seed, workload)` pair replays
//! the same fault schedule — this is what makes chaos runs reproducible.
//!
//! Hit counters are per-entry and deterministic. When nothing is armed,
//! [`fail_point`] is a single relaxed atomic load after a one-time env
//! lookup.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::error::GuardError;

#[derive(Debug, Clone, Copy, PartialEq)]
enum FailAction {
    Err,
    Panic,
    /// Abort the process without unwinding (crash-drill action).
    Kill,
    /// Sleep for the given duration, then succeed.
    Delay(Duration),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on every hit.
    Every,
    /// Fire exactly on the Nth hit (1-based), never again.
    At(u64),
    /// Fire each hit independently with this probability, drawn from the
    /// entry's seeded deterministic stream.
    Prob(f64),
}

#[derive(Debug)]
struct Failpoint {
    site: String,
    action: FailAction,
    trigger: Trigger,
    hits: AtomicU64,
    /// SplitMix64 state for `Trigger::Prob` draws; advanced once per hit so
    /// the k-th hit's decision is a pure function of (seed, site, entry, k).
    rng: AtomicU64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static TABLE: OnceLock<Mutex<Vec<Failpoint>>> = OnceLock::new();
/// The spec text the current table was parsed from (for [`current_failpoints`]
/// and the [`ScopedFailpoints`] save/restore protocol).
static SPEC: OnceLock<Mutex<String>> = OnceLock::new();
static SEED: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn table() -> &'static Mutex<Vec<Failpoint>> {
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, Vec<Failpoint>> {
    match table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn spec_slot() -> std::sync::MutexGuard<'static, String> {
    let m = SPEC.get_or_init(|| Mutex::new(String::new()));
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One SplitMix64 step: returns the mixed output and advances `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn install(points: Vec<Failpoint>, spec: &str) {
    let active = !points.is_empty();
    *lock_table() = points;
    *spec_slot() = spec.to_string();
    ACTIVE.store(active, Ordering::Release);
}

fn parse_spec(spec: &str, seed: u64) -> Result<Vec<Failpoint>, String> {
    let mut points = Vec::new();
    for (index, entry) in spec.split(',').enumerate() {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry `{entry}` is missing `=action`"))?;
        // Trigger suffix: `@N` (Nth hit) or `%P` (per-hit probability). The
        // action text may itself contain neither character, so the rightmost
        // occurrence is unambiguous.
        let (action_str, trigger) = if let Some((a, n)) = rhs.rsplit_once('@') {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("failpoint entry `{entry}`: `@{n}` is not a number"))?;
            if n == 0 {
                return Err(format!("failpoint entry `{entry}`: hit index is 1-based"));
            }
            (a, Trigger::At(n))
        } else if let Some((a, p)) = rhs.rsplit_once('%') {
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| format!("failpoint entry `{entry}`: `%{p}` is not a number"))?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!(
                    "failpoint entry `{entry}`: probability must be in (0, 1]"
                ));
            }
            (a, Trigger::Prob(p))
        } else {
            (rhs, Trigger::Every)
        };
        let action = match action_str.trim() {
            "err" => FailAction::Err,
            "panic" => FailAction::Panic,
            "kill" => FailAction::Kill,
            other => match other.strip_prefix("delay:").and_then(|d| {
                d.strip_suffix("ms")
                    .and_then(|ms| ms.trim().parse::<u64>().ok())
            }) {
                Some(ms) => FailAction::Delay(Duration::from_millis(ms)),
                None => {
                    return Err(format!(
                        "failpoint entry `{entry}`: unknown action `{other}` \
                         (expected err|panic|kill|delay:<N>ms)"
                    ))
                }
            },
        };
        let site = site.trim().to_string();
        let rng_seed = seed ^ fnv1a(&site) ^ index as u64;
        points.push(Failpoint {
            site,
            action,
            trigger,
            hits: AtomicU64::new(0),
            rng: AtomicU64::new(rng_seed),
        });
    }
    Ok(points)
}

fn ensure_env_init() {
    ENV_INIT.get_or_init(|| {
        if let Ok(seed) = std::env::var("BOOTES_FAILPOINT_SEED") {
            match seed.parse::<u64>() {
                Ok(s) => SEED.store(s, Ordering::Relaxed),
                Err(_) => {
                    eprintln!("bootes-guard: ignoring non-numeric BOOTES_FAILPOINT_SEED `{seed}`")
                }
            }
        }
        if let Ok(spec) = std::env::var("BOOTES_FAILPOINTS") {
            match parse_spec(&spec, SEED.load(Ordering::Relaxed)) {
                Ok(points) => install(points, &spec),
                Err(msg) => eprintln!("bootes-guard: ignoring BOOTES_FAILPOINTS: {msg}"),
            }
        }
    });
}

/// Arms failpoints from `spec` under the current global seed, replacing any
/// previously armed set (including one loaded from `BOOTES_FAILPOINTS`). Hit
/// counters start at zero. Returns a parse error message on malformed specs.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn set_failpoints(spec: &str) -> Result<(), String> {
    let points = parse_spec(spec, SEED.load(Ordering::Relaxed))?;
    let _ = ENV_INIT.set(()); // programmatic config overrides the env
    install(points, spec);
    Ok(())
}

/// Sets the global failpoint seed (the `BOOTES_FAILPOINT_SEED` equivalent)
/// and re-arms `spec` under it, so probabilistic entries replay the same
/// fire/skip sequence for the same `(seed, spec)` pair.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn set_failpoints_seeded(spec: &str, seed: u64) -> Result<(), String> {
    set_failpoint_seed(seed);
    set_failpoints(spec)
}

/// Sets the global seed used by probabilistic (`%P`) entries. Takes effect
/// for specs armed *after* this call; already-armed entries keep their
/// streams.
pub fn set_failpoint_seed(seed: u64) {
    let _ = ENV_INIT.set(());
    SEED.store(seed, Ordering::Relaxed);
}

/// Disarms every failpoint and suppresses any future `BOOTES_FAILPOINTS`
/// re-initialization in this process.
pub fn clear_failpoints() {
    let _ = ENV_INIT.set(());
    install(Vec::new(), "");
}

/// The spec text currently armed (empty string when nothing is armed).
pub fn current_failpoints() -> String {
    ensure_env_init();
    spec_slot().clone()
}

/// RAII failpoint scope: arms a spec and restores the previously armed spec
/// on drop, so chaos runs and unit tests cannot leak armed faults into each
/// other. Restoring re-parses the saved spec, which resets its hit counters
/// and probabilistic streams — scopes isolate *which* faults are armed, not
/// mid-flight counter state.
///
/// ```
/// use bootes_guard::{fail_point, ScopedFailpoints};
/// {
///     let _fp = ScopedFailpoints::arm("demo.site=err@1").unwrap();
///     assert!(fail_point("demo.site").is_err());
/// } // dropped: previous (empty) spec restored
/// assert!(fail_point("demo.site").is_ok());
/// ```
#[must_use = "dropping the scope immediately restores the previous failpoints"]
pub struct ScopedFailpoints {
    prev_spec: String,
    prev_seed: u64,
}

impl ScopedFailpoints {
    /// Arms `spec` under the current global seed, saving the previous spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry (the previous
    /// spec stays armed).
    pub fn arm(spec: &str) -> Result<Self, String> {
        Self::arm_seeded(spec, SEED.load(Ordering::Relaxed))
    }

    /// Arms `spec` under an explicit seed, saving both the previous spec and
    /// the previous seed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry (the previous
    /// spec stays armed).
    pub fn arm_seeded(spec: &str, seed: u64) -> Result<Self, String> {
        ensure_env_init();
        let prev_spec = current_failpoints();
        let prev_seed = SEED.load(Ordering::Relaxed);
        let points = parse_spec(spec, seed)?;
        SEED.store(seed, Ordering::Relaxed);
        install(points, spec);
        Ok(ScopedFailpoints {
            prev_spec,
            prev_seed,
        })
    }
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        SEED.store(self.prev_seed, Ordering::Relaxed);
        match parse_spec(&self.prev_spec, self.prev_seed) {
            Ok(points) => {
                let spec = std::mem::take(&mut self.prev_spec);
                install(points, &spec);
            }
            // The saved spec parsed when it was armed; a re-parse failure is
            // unreachable in practice, but never panic in a destructor.
            Err(_) => install(Vec::new(), ""),
        }
    }
}

/// Hits the failpoint named `site`. Returns [`GuardError::Injected`] (or
/// panics / aborts / sleeps, per the armed action) when an armed entry's
/// trigger condition is met; otherwise returns `Ok(())`.
///
/// # Errors
///
/// Returns [`GuardError::Injected`] when an armed `err` entry fires.
pub fn fail_point(site: &str) -> Result<(), GuardError> {
    ensure_env_init();
    if !ACTIVE.load(Ordering::Acquire) {
        return Ok(());
    }
    let fired = {
        let tbl = lock_table();
        let mut fired = None;
        for fp in tbl.iter() {
            if fp.site != site {
                continue;
            }
            let hit = fp.hits.fetch_add(1, Ordering::Relaxed) + 1;
            let fire = match fp.trigger {
                Trigger::At(n) => hit == n,
                Trigger::Every => true,
                Trigger::Prob(p) => {
                    // Advance this entry's SplitMix64 stream exactly once per
                    // hit; the table lock serializes hits, so hit k always
                    // consumes draw k.
                    let mut state = fp.rng.load(Ordering::Relaxed);
                    let draw = splitmix64(&mut state);
                    fp.rng.store(state, Ordering::Relaxed);
                    let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    unit < p
                }
            };
            if fire {
                fired = Some((fp.action, hit));
                break;
            }
        }
        fired
    };
    if let Some((action, hit)) = fired {
        bootes_obs::counter_add("guard.failpoint", 1);
        match action {
            FailAction::Err => Err(GuardError::Injected {
                site: site.to_string(),
            }),
            FailAction::Panic => panic!("failpoint {site}: injected panic (hit {hit})"),
            FailAction::Kill => {
                // Crash drill: die like SIGKILL would — no unwinding, no
                // destructors, no atexit cleanup. Anything half-written
                // stays half-written for the recovery path to deal with.
                eprintln!("failpoint {site}: injected kill (hit {hit}), aborting");
                std::process::abort();
            }
            FailAction::Delay(d) => {
                // We are outside the table-lock scope here, so a parked
                // thread never blocks other sites from evaluating entries.
                bootes_obs::counter_add("guard.failpoint.delay", 1);
                std::thread::sleep(d);
                Ok(())
            }
        }
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_serial as serial;

    #[test]
    fn unset_fail_point_is_ok() {
        let _g = serial();
        clear_failpoints();
        for _ in 0..10 {
            fail_point("anything").unwrap();
        }
    }

    #[test]
    fn err_at_n_fires_exactly_once() {
        let _g = serial();
        set_failpoints("a.site=err@3").unwrap();
        fail_point("a.site").unwrap();
        fail_point("a.site").unwrap();
        let err = fail_point("a.site").unwrap_err();
        assert_eq!(
            err,
            GuardError::Injected {
                site: "a.site".to_string()
            }
        );
        // Hit 4 and beyond: armed-at-3 never fires again.
        fail_point("a.site").unwrap();
        fail_point("a.site").unwrap();
        clear_failpoints();
    }

    #[test]
    fn err_without_index_fires_every_hit() {
        let _g = serial();
        set_failpoints("b.site=err").unwrap();
        assert!(fail_point("b.site").is_err());
        assert!(fail_point("b.site").is_err());
        assert!(fail_point("other.site").is_ok());
        clear_failpoints();
    }

    #[test]
    fn panic_action_panics() {
        let _g = serial();
        set_failpoints("c.site=panic@1").unwrap();
        let caught = std::panic::catch_unwind(|| fail_point("c.site"));
        assert!(caught.is_err());
        clear_failpoints();
    }

    #[test]
    fn multiple_entries_parse() {
        let _g = serial();
        set_failpoints("lanczos.restart=err@3, kmeans.iter=panic@1").unwrap();
        fail_point("lanczos.restart").unwrap();
        fail_point("lanczos.restart").unwrap();
        assert!(fail_point("lanczos.restart").is_err());
        clear_failpoints();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = serial();
        assert!(set_failpoints("nosite").is_err());
        assert!(set_failpoints("a=nope").is_err());
        assert!(set_failpoints("a=err@x").is_err());
        assert!(set_failpoints("a=err@0").is_err());
        assert!(set_failpoints("a=err%0").is_err());
        assert!(set_failpoints("a=err%1.5").is_err());
        assert!(set_failpoints("a=delay:ms").is_err());
        assert!(set_failpoints("a=delay:10").is_err());
        clear_failpoints();
    }

    #[test]
    fn checkpoint_routes_through_fail_point() {
        let _g = serial();
        set_failpoints("d.site=err@1").unwrap();
        assert!(crate::checkpoint("d.site").is_err());
        assert!(crate::checkpoint("d.site").is_ok());
        clear_failpoints();
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let _g = serial();
        set_failpoints("e.site=delay:20ms@1").unwrap();
        let t0 = std::time::Instant::now();
        fail_point("e.site").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // @1 consumed: the next hit is instant.
        let t1 = std::time::Instant::now();
        fail_point("e.site").unwrap();
        assert!(t1.elapsed() < Duration::from_millis(20));
        clear_failpoints();
    }

    #[test]
    fn probabilistic_firing_is_seed_deterministic() {
        let _g = serial();
        let sequence = |seed: u64| -> Vec<bool> {
            set_failpoints_seeded("p.site=err%0.5", seed).unwrap();
            (0..64).map(|_| fail_point("p.site").is_err()).collect()
        };
        let a = sequence(1234);
        let b = sequence(1234);
        let c = sequence(5678);
        clear_failpoints();
        set_failpoint_seed(0);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must differ (64 draws at p=0.5)");
        let fires = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fires),
            "p=0.5 over 64 draws fired {fires} times"
        );
    }

    #[test]
    fn scoped_failpoints_restore_previous_spec() {
        let _g = serial();
        set_failpoints("outer.site=err").unwrap();
        {
            let _fp = ScopedFailpoints::arm("inner.site=err").unwrap();
            assert!(fail_point("inner.site").is_err());
            assert!(fail_point("outer.site").is_ok(), "outer spec is replaced");
            assert_eq!(current_failpoints(), "inner.site=err");
        }
        // Scope dropped: the outer spec is armed again.
        assert!(fail_point("outer.site").is_err());
        assert!(fail_point("inner.site").is_ok());
        assert_eq!(current_failpoints(), "outer.site=err");
        clear_failpoints();
        assert_eq!(current_failpoints(), "");
    }

    #[test]
    fn scoped_failpoints_parse_error_keeps_previous_spec() {
        let _g = serial();
        set_failpoints("keep.site=err").unwrap();
        assert!(ScopedFailpoints::arm("broken=").is_err());
        assert!(
            fail_point("keep.site").is_err(),
            "previous spec still armed"
        );
        clear_failpoints();
    }

    #[test]
    fn scoped_seed_restores_on_drop() {
        let _g = serial();
        set_failpoint_seed(7);
        {
            let _fp = ScopedFailpoints::arm_seeded("q.site=err%0.5", 99).unwrap();
            assert_eq!(SEED.load(Ordering::Relaxed), 99);
        }
        assert_eq!(SEED.load(Ordering::Relaxed), 7);
        set_failpoint_seed(0);
        clear_failpoints();
    }
}
