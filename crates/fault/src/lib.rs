//! # bf-fault: deterministic fault-injection plans
//!
//! A [`FaultPlan`] describes which faults a chaos run injects and with
//! what parameters. It is parsed from the `--faults=SPEC` flag (or the
//! `BF_FAULTS` environment variable) where `SPEC` is a `;`-separated
//! list of clauses, each `kind@key=value,key=value`:
//!
//! ```text
//! tlb-bitflip@p=1e-5              flip one PPN bit of a resident L2 entry
//! walk-stall@p=1e-4,cycles=2000   transient walk stall, retried after backoff
//! alloc-fail@p=1e-6               transient frame-allocation failure + retry
//! trace-corrupt@block=3           corrupt one capture block's payload byte
//! cell-panic@idx=2                panic sweep cell idx (for --keep-going)
//! seed=7                          optional override of the injection seed
//! ```
//!
//! ## Determinism contract
//!
//! Injection decisions must be byte-reproducible across `--threads`
//! settings. Each injection *site* (TLB bit-flip, walk stall, alloc
//! fail) owns a [`SiteSampler`]: a counter-mode SplitMix64 stream keyed
//! on `(seed, site, sequence-number)`. The sequence number counts
//! *simulated events at that site* — e.g. L2-miss-path entries — whose
//! order is already part of the simulator's determinism contract, so the
//! decision stream is independent of host threads or wall clock. No
//! state is shared between sites or between machines: every experiment
//! cell arms its own samplers from the same plan and sees the same
//! decisions regardless of which worker thread runs it.
//!
//! When no plan is armed the simulator keeps no sampler state and the
//! hot path is gated by one hoisted boolean on the miss path only — the
//! uninstrumented hit path is untouched.

/// Site salt for the L2-miss-path TLB bit-flip sampler.
pub const SITE_TLB_BITFLIP: u64 = 0x7f1b_0001;
/// Site salt for the page-walk stall sampler.
pub const SITE_WALK_STALL: u64 = 0x7f1b_0002;
/// Site salt for the frame-allocation failure sampler.
pub const SITE_ALLOC_FAIL: u64 = 0x7f1b_0003;

/// Default injection seed when the spec carries no `seed=` clause.
pub const DEFAULT_SEED: u64 = 0xbabe_1f15;

/// SplitMix64 finalizer: a bijective 64-bit mixer used in counter mode.
/// Statistical quality is far beyond what fault sampling needs; what
/// matters here is that it is pure, seedable, and platform-independent.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parameters of the `walk-stall` fault: each sampled page walk is
/// delayed by `cycles` before the (always successful) retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkStall {
    pub probability: f64,
    pub cycles: u64,
}

/// A parsed fault-injection plan. `Copy` so it threads through the
/// (also `Copy`) experiment/sim configs without ceremony; an unarmed
/// plan is represented by `Option<FaultPlan>::None` upstream, so this
/// type never needs an "empty" fast path of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every [`SiteSampler`] derived from this plan.
    pub seed: u64,
    /// Probability of flipping a PPN bit of a resident L2 entry at each
    /// L2-miss-path event.
    pub tlb_bitflip: Option<f64>,
    /// Transient page-walk stall probability and backoff cycles.
    pub walk_stall: Option<WalkStall>,
    /// Probability of a transient frame-allocation failure (retried
    /// after a bounded backoff) at each fault-handling event.
    pub alloc_fail: Option<f64>,
    /// Corrupt one payload byte of this capture block index on write.
    pub trace_corrupt: Option<u64>,
    /// Panic this sweep cell index (exercises `--keep-going`).
    pub cell_panic: Option<usize>,
}

impl FaultPlan {
    /// A plan with nothing armed (useful as a parse accumulator).
    pub fn none() -> Self {
        FaultPlan {
            seed: DEFAULT_SEED,
            tlb_bitflip: None,
            walk_stall: None,
            alloc_fail: None,
            trace_corrupt: None,
            cell_panic: None,
        }
    }

    /// True when no clause is armed.
    pub fn is_empty(&self) -> bool {
        self.tlb_bitflip.is_none()
            && self.walk_stall.is_none()
            && self.alloc_fail.is_none()
            && self.trace_corrupt.is_none()
            && self.cell_panic.is_none()
    }

    /// True when any machine-level fault (bit-flip, walk stall, alloc
    /// fail) is armed — i.e. the simulator itself must sample.
    pub fn arms_machine(&self) -> bool {
        self.tlb_bitflip.is_some() || self.walk_stall.is_some() || self.alloc_fail.is_some()
    }

    /// Parses a `;`-separated spec. Returns a named error for any
    /// malformed clause; an empty spec is an error (arm nothing by
    /// simply not passing `--faults`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        let mut clauses = 0usize;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            clauses += 1;
            if let Some(value) = clause.strip_prefix("seed=") {
                plan.seed = value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("faults: bad seed '{value}'"))?;
                continue;
            }
            let (kind, params) = match clause.split_once('@') {
                Some((kind, params)) => (kind.trim(), params.trim()),
                None => return Err(format!("faults: clause '{clause}' is missing '@params'")),
            };
            let params = parse_params(kind, params)?;
            match kind {
                "tlb-bitflip" => {
                    reject_unknown(kind, &params, &["p"])?;
                    plan.tlb_bitflip = Some(require_probability(kind, &params)?);
                }
                "walk-stall" => {
                    reject_unknown(kind, &params, &["p", "cycles"])?;
                    plan.walk_stall = Some(WalkStall {
                        probability: require_probability(kind, &params)?,
                        cycles: require_u64(kind, &params, "cycles")?,
                    });
                }
                "alloc-fail" => {
                    reject_unknown(kind, &params, &["p"])?;
                    plan.alloc_fail = Some(require_probability(kind, &params)?);
                }
                "trace-corrupt" => {
                    reject_unknown(kind, &params, &["block"])?;
                    plan.trace_corrupt = Some(require_u64(kind, &params, "block")?);
                }
                "cell-panic" => {
                    reject_unknown(kind, &params, &["idx"])?;
                    plan.cell_panic = Some(require_u64(kind, &params, "idx")? as usize);
                }
                other => return Err(format!("faults: unknown fault kind '{other}'")),
            }
        }
        if clauses == 0 {
            return Err("faults: empty spec".to_string());
        }
        Ok(plan)
    }

    /// Reads the `BF_FAULTS` environment variable; `Ok(None)` when it
    /// is unset or blank.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("BF_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The sampler for one site salt and probability under this plan's
    /// seed.
    pub fn sampler(&self, site: u64, probability: f64) -> SiteSampler {
        SiteSampler::new(self.seed, site, probability)
    }
}

fn parse_params(kind: &str, params: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in params.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("faults: {kind}: parameter '{pair}' is not key=value"))?;
        out.push((key.trim().to_string(), value.trim().to_string()));
    }
    if out.is_empty() {
        return Err(format!("faults: {kind}: no parameters"));
    }
    Ok(out)
}

/// A typo'd or misplaced parameter (e.g. `seed=` inside a fault clause
/// instead of as its own `;seed=N` clause) is an error, never silently
/// dropped — a chaos run that quietly ignores half its spec is worse
/// than no chaos run.
fn reject_unknown(kind: &str, params: &[(String, String)], allowed: &[&str]) -> Result<(), String> {
    for (key, _) in params {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "faults: {kind}: unknown parameter '{key}' (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn lookup<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn require_probability(kind: &str, params: &[(String, String)]) -> Result<f64, String> {
    let raw = lookup(params, "p").ok_or_else(|| format!("faults: {kind}: missing p="))?;
    let p = raw
        .parse::<f64>()
        .map_err(|_| format!("faults: {kind}: bad probability '{raw}'"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("faults: {kind}: probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn require_u64(kind: &str, params: &[(String, String)], key: &str) -> Result<u64, String> {
    let raw = lookup(params, key).ok_or_else(|| format!("faults: {kind}: missing {key}="))?;
    raw.parse::<u64>()
        .map_err(|_| format!("faults: {kind}: bad {key} '{raw}'"))
}

/// Counter-mode sampler for one injection site. Each [`fire`] consumes
/// one sequence number; the decision depends only on
/// `(seed, site, sequence)`, never on call interleaving with other
/// sites, so the stream is reproducible across thread settings as long
/// as the *event order at this site* is deterministic (which the
/// simulator guarantees).
///
/// [`fire`]: SiteSampler::fire
#[derive(Debug, Clone, Copy)]
pub struct SiteSampler {
    key: u64,
    threshold: u64,
    always: bool,
    seq: u64,
}

impl SiteSampler {
    pub fn new(seed: u64, site: u64, probability: f64) -> Self {
        let p = probability.clamp(0.0, 1.0);
        SiteSampler {
            key: splitmix64(seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            // p * 2^64, saturating; `always` handles the p = 1.0 edge
            // where the product rounds to 2^64 and would wrap to 0.
            threshold: if p >= 1.0 {
                u64::MAX
            } else {
                (p * 18_446_744_073_709_551_616.0) as u64
            },
            always: p >= 1.0,
            seq: 0,
        }
    }

    /// A sampler that never fires (placeholder for unarmed sites).
    pub fn disarmed() -> Self {
        SiteSampler {
            key: 0,
            threshold: 0,
            always: false,
            seq: 0,
        }
    }

    /// Sequence numbers consumed so far (events observed at this site).
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// Consumes one sequence number. When the site fires, returns a
    /// derived 64-bit value for secondary decisions (victim choice, bit
    /// index, ...) that is itself deterministic per (seed, site, seq).
    #[inline]
    pub fn fire(&mut self) -> Option<u64> {
        let seq = self.seq;
        self.seq += 1;
        let hash = splitmix64(self.key ^ seq);
        if self.always || hash < self.threshold {
            Some(splitmix64(hash ^ 0x5a5a_5a5a_5a5a_5a5a))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "tlb-bitflip@p=1e-5;walk-stall@p=1e-4,cycles=2000;alloc-fail@p=1e-6;\
             trace-corrupt@block=3;cell-panic@idx=2;seed=7",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.tlb_bitflip, Some(1e-5));
        assert_eq!(
            plan.walk_stall,
            Some(WalkStall {
                probability: 1e-4,
                cycles: 2000
            })
        );
        assert_eq!(plan.alloc_fail, Some(1e-6));
        assert_eq!(plan.trace_corrupt, Some(3));
        assert_eq!(plan.cell_panic, Some(2));
        assert!(!plan.is_empty());
        assert!(plan.arms_machine());
    }

    #[test]
    fn trace_and_cell_clauses_do_not_arm_the_machine() {
        let plan = FaultPlan::parse("trace-corrupt@block=0;cell-panic@idx=1").unwrap();
        assert!(!plan.arms_machine());
        assert!(!plan.is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for (spec, fragment) in [
            ("", "empty spec"),
            ("  ;  ", "empty spec"),
            ("tlb-bitflip", "missing '@params'"),
            ("tlb-bitflip@", "no parameters"),
            ("tlb-bitflip@q=1", "unknown parameter 'q'"),
            ("tlb-bitflip@p=1e-4,seed=7", "unknown parameter 'seed'"),
            ("tlb-bitflip@p=zebra", "bad probability"),
            ("tlb-bitflip@p=1.5", "outside [0, 1]"),
            ("walk-stall@p=0.1", "missing cycles="),
            ("walk-stall@p=0.1,cycles=-4", "bad cycles"),
            ("trace-corrupt@idx=1", "unknown parameter 'idx'"),
            ("cell-panic@idx=nope", "bad idx"),
            ("meteor-strike@p=1", "unknown fault kind"),
            ("seed=house", "bad seed"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains(fragment),
                "spec '{spec}': error '{err}' should mention '{fragment}'"
            );
        }
    }

    #[test]
    fn sampler_is_a_pure_function_of_seed_site_sequence() {
        let plan = FaultPlan::parse("tlb-bitflip@p=0.25").unwrap();
        let mut a = plan.sampler(SITE_TLB_BITFLIP, 0.25);
        let mut b = plan.sampler(SITE_TLB_BITFLIP, 0.25);
        let first: Vec<Option<u64>> = (0..512).map(|_| a.fire()).collect();
        let second: Vec<Option<u64>> = (0..512).map(|_| b.fire()).collect();
        assert_eq!(first, second, "same (seed, site) replays identically");

        let mut other_site = plan.sampler(SITE_WALK_STALL, 0.25);
        let third: Vec<Option<u64>> = (0..512).map(|_| other_site.fire()).collect();
        assert_ne!(first, third, "sites draw from independent streams");

        let reseeded = FaultPlan { seed: 99, ..plan };
        let mut c = reseeded.sampler(SITE_TLB_BITFLIP, 0.25);
        let fourth: Vec<Option<u64>> = (0..512).map(|_| c.fire()).collect();
        assert_ne!(first, fourth, "seed changes the stream");
    }

    #[test]
    fn probability_edges() {
        let mut never = SiteSampler::new(1, SITE_ALLOC_FAIL, 0.0);
        assert!((0..4096).all(|_| never.fire().is_none()));
        let mut always = SiteSampler::new(1, SITE_ALLOC_FAIL, 1.0);
        assert!((0..4096).all(|_| always.fire().is_some()));
        let mut disarmed = SiteSampler::disarmed();
        assert!((0..4096).all(|_| disarmed.fire().is_none()));
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let mut sampler = SiteSampler::new(42, SITE_TLB_BITFLIP, 0.125);
        let fired = (0..65_536).filter(|_| sampler.fire().is_some()).count();
        let expected = 65_536.0 * 0.125;
        assert!(
            (fired as f64 - expected).abs() < expected * 0.25,
            "fired {fired}, expected ~{expected}"
        );
        assert_eq!(sampler.events(), 65_536);
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the canonical
        // SplitMix64 sequence (Steele et al.), pinning the mixer so a
        // refactor cannot silently re-key every committed chaos run.
        assert_eq!(splitmix64(1234567), 6457827717110365317);
        assert_eq!(splitmix64(0), 16294208416658607535);
    }
}
