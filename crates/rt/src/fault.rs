//! Deterministic fault injection: reproducible chaos for pipeline
//! hardening.
//!
//! Long labeling runs die in the real world — a measurement crashes, a
//! benchmark wedges, a worker panics. The fault-tolerance layer that
//! survives those deaths is only testable if the deaths themselves are
//! reproducible, so this module injects *synthetic* faults from a pure
//! function of `(seed, site, key)`: the same plane trips the same sites
//! on the same keys on every run, every platform, and every thread
//! count. A chaos run is as bit-replayable as a clean one.
//!
//! A [`FaultPlane`] is configured from the `LOOPML_FAULTS` environment
//! variable:
//!
//! ```text
//! LOOPML_FAULTS=<seed>:<rate>[:<site>]
//! LOOPML_FAULTS=0xC0FFEE:0.1              # 10% faults at every site
//! LOOPML_FAULTS=7:0.25:label.measure      # only measurement faults
//! ```
//!
//! Injection sites are named code locations (see [`site`]); each call
//! site passes a stable `key` identifying the work item (benchmark
//! index, loop index, factor, attempt — packed with [`fault_key`]), and
//! the plane decides deterministically whether that item faults.
//! Result-shaped call sites use [`FaultPlane::check`]; call sites with
//! no error path use [`FaultPlane::trip`], which panics with an
//! [`InjectedFault`] payload that [`crate::par::par_map_result`]
//! recognizes and isolates.

use std::panic::panic_any;
use std::sync::Once;

/// Environment variable configuring the fault plane
/// (`<seed>:<rate>[:<site>]`).
pub const FAULTS_ENV: &str = "LOOPML_FAULTS";

/// Named injection sites.
pub mod site {
    /// One measurement of one (loop, factor) pair during labeling.
    /// Transient: retries re-measure with a reseeded noise stream.
    pub const LABEL_MEASURE: &str = "label.measure";
    /// The labeling of one whole benchmark. Persistent: the benchmark
    /// crashes identically on every attempt and is quarantined.
    pub const LABEL_LOOP: &str = "label.loop";
    /// One whole-benchmark evaluation measurement (Figures 4/5).
    pub const EVAL_BENCH: &str = "eval.bench";
    /// Decoding one serving request (parse/admission). Transient: the
    /// daemon re-decodes on retry.
    pub const SERVE_DECODE: &str = "serve.decode";
    /// One batched prediction inside the serving daemon. Transient:
    /// predictions are pure, so a retry answers bit-identically.
    pub const SERVE_PREDICT: &str = "serve.predict";
    /// Writing one serving response. Transient: the response is not
    /// emitted until the write check passes, so a retry cannot
    /// duplicate output.
    pub const SERVE_WRITE: &str = "serve.write";
    /// Every known site, for validating `LOOPML_FAULTS` site filters.
    pub const ALL: &[&str] = &[
        LABEL_MEASURE,
        LABEL_LOOP,
        EVAL_BENCH,
        SERVE_DECODE,
        SERVE_PREDICT,
        SERVE_WRITE,
    ];
}

/// Panic payload raised by [`FaultPlane::trip`]. Isolation layers
/// downcast to this to distinguish injected chaos from genuine bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that tripped.
    pub site: &'static str,
    /// The work-item key that tripped it.
    pub key: u64,
}

/// A deterministic fault-injection plane.
///
/// Inactive by default ([`FaultPlane::disabled`] — every check passes,
/// costing one branch); activated with a seed and a fault rate, and
/// optionally narrowed to a single site or an explicit key set.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlane {
    seed: u64,
    rate: f64,
    site: Option<String>,
    only_keys: Option<Vec<u64>>,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::disabled()
    }
}

impl FaultPlane {
    /// A plane that never faults.
    pub fn disabled() -> Self {
        FaultPlane {
            seed: 0,
            rate: 0.0,
            site: None,
            only_keys: None,
        }
    }

    /// A plane faulting each `(site, key)` independently with
    /// probability `rate` (deterministically — the coin flip is a hash
    /// of `(seed, site, key)`).
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlane {
            seed,
            rate: rate.clamp(0.0, 1.0),
            site: None,
            only_keys: None,
        }
    }

    /// Restricts injection to one named site.
    pub fn at_site(mut self, site: &str) -> Self {
        self.site = Some(site.to_string());
        self
    }

    /// Restricts injection to an explicit key set (tests use this to
    /// fault exactly one benchmark or loop).
    pub fn only_keys(mut self, keys: Vec<u64>) -> Self {
        self.only_keys = Some(keys);
        self
    }

    /// Reads the plane from [`FAULTS_ENV`]. Returns `None` when unset;
    /// a malformed value warns once to stderr and is treated as unset
    /// (a chaos knob must never be able to break a production run).
    pub fn from_env() -> Option<Self> {
        let v = std::env::var(FAULTS_ENV).ok()?;
        match parse_spec(&v) {
            Some(p) => Some(p),
            None => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[loopml-rt] ignoring malformed {FAULTS_ENV}={v:?} \
                         (want <seed>:<rate in 0..=1>[:<site>], sites: {})",
                        site::ALL.join(", ")
                    );
                });
                None
            }
        }
    }

    /// [`FaultPlane::from_env`], defaulting to [`FaultPlane::disabled`].
    pub fn env_or_disabled() -> Self {
        FaultPlane::from_env().unwrap_or_else(FaultPlane::disabled)
    }

    /// `true` if this plane can ever fault.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The deterministic fault decision for `(site, key)`.
    pub fn should_fault(&self, site: &str, key: u64) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if let Some(s) = &self.site {
            if s != site {
                return false;
            }
        }
        if let Some(keys) = &self.only_keys {
            if !keys.contains(&key) {
                return false;
            }
        }
        if self.rate >= 1.0 {
            return true;
        }
        let h = mix64(self.seed ^ fault_key_str(site) ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.rate
    }

    /// Errs with an [`InjectedFault`] when `(site, key)` faults — for
    /// call sites with a `Result` path.
    pub fn check(&self, site: &'static str, key: u64) -> Result<(), InjectedFault> {
        if self.should_fault(site, key) {
            Err(InjectedFault { site, key })
        } else {
            Ok(())
        }
    }

    /// Panics with an [`InjectedFault`] payload when `(site, key)`
    /// faults — for call sites with no error path. The panic is meant to
    /// be caught by [`crate::par::par_map_result`] (or any
    /// `catch_unwind` isolation layer), which surfaces the site name.
    pub fn trip(&self, site: &'static str, key: u64) {
        if self.should_fault(site, key) {
            panic_any(InjectedFault { site, key });
        }
    }
}

/// Packs multiple identifying parts (benchmark index, loop index,
/// factor, attempt, …) into one stable fault key.
pub fn fault_key(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        h ^= p;
        h = mix64(h.wrapping_mul(0x1000_0000_01b3));
    }
    h
}

/// A stable fault key for a string identity (e.g. a benchmark name).
pub fn fault_key_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_spec(spec: &str) -> Option<FaultPlane> {
    let mut it = spec.splitn(3, ':');
    let seed = parse_u64(it.next()?)?;
    let rate: f64 = it.next()?.trim().parse().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    let site = match it.next().map(str::trim) {
        None | Some("") => None,
        Some(s) if site::ALL.contains(&s) => Some(s.to_string()),
        Some(_) => return None,
    };
    Some(FaultPlane {
        seed,
        rate,
        site,
        only_keys: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_faults() {
        let p = FaultPlane::disabled();
        for k in 0..100 {
            assert!(!p.should_fault(site::LABEL_MEASURE, k));
        }
        assert!(!p.is_active());
        p.trip(site::LABEL_LOOP, 3); // must not panic
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let p = FaultPlane::new(0xC0FFEE, 0.25);
        let a: Vec<bool> = (0..4000)
            .map(|k| p.should_fault(site::LABEL_MEASURE, k))
            .collect();
        let b: Vec<bool> = (0..4000)
            .map(|k| p.should_fault(site::LABEL_MEASURE, k))
            .collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        assert!(
            (700..=1300).contains(&hits),
            "rate 0.25 over 4000 keys hit {hits} times"
        );
    }

    #[test]
    fn sites_fault_independently() {
        let p = FaultPlane::new(9, 0.5);
        let differs = (0..256)
            .any(|k| p.should_fault(site::LABEL_MEASURE, k) != p.should_fault(site::LABEL_LOOP, k));
        assert!(differs, "site name must enter the fault decision");
    }

    #[test]
    fn site_filter_and_key_filter_narrow_injection() {
        let p = FaultPlane::new(0, 1.0).at_site(site::LABEL_LOOP);
        assert!(p.should_fault(site::LABEL_LOOP, 7));
        assert!(!p.should_fault(site::LABEL_MEASURE, 7));

        let p = FaultPlane::new(0, 1.0).only_keys(vec![2, 5]);
        assert!(p.should_fault(site::LABEL_LOOP, 2));
        assert!(p.should_fault(site::EVAL_BENCH, 5));
        assert!(!p.should_fault(site::LABEL_LOOP, 3));
    }

    #[test]
    fn check_and_trip_raise_injected_faults() {
        let p = FaultPlane::new(0, 1.0);
        let err = p.check(site::LABEL_MEASURE, 42).unwrap_err();
        assert_eq!(err.site, site::LABEL_MEASURE);
        assert_eq!(err.key, 42);

        let caught = std::panic::catch_unwind(|| p.trip(site::EVAL_BENCH, 9)).unwrap_err();
        let fault = caught.downcast_ref::<InjectedFault>().expect("payload");
        assert_eq!(fault.site, site::EVAL_BENCH);
    }

    #[test]
    fn spec_parsing_accepts_valid_and_rejects_garbage() {
        assert_eq!(parse_spec("7:0.25"), Some(FaultPlane::new(7, 0.25)));
        assert_eq!(
            parse_spec("0xff:1.0:label.loop"),
            Some(FaultPlane::new(255, 1.0).at_site(site::LABEL_LOOP))
        );
        assert_eq!(parse_spec(" 12 : 0.5 "), Some(FaultPlane::new(12, 0.5)));
        for bad in [
            "",
            "7",
            "abc:0.1",
            "7:nope",
            "7:1.5",
            "7:-0.1",
            "7:0.1:no.such.site",
        ] {
            assert_eq!(parse_spec(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn fault_keys_are_stable_and_order_sensitive() {
        assert_eq!(fault_key(&[1, 2, 3]), fault_key(&[1, 2, 3]));
        assert_ne!(fault_key(&[1, 2]), fault_key(&[2, 1]));
        assert_ne!(fault_key_str("164.gzip"), fault_key_str("171.swim"));
    }
}
