//! The injectable fault plane for chaos-testing the serving stack.
//!
//! Two planes, one grammar. Both are seeded and decide every fault as a
//! pure function of `(seed, session, ...)`, so a chaos run is byte-for-byte
//! reproducible and the set of *targeted* sessions is independent of
//! batching, sharding, or timing:
//!
//! * [`EngineFaults`] — server-side faults, read from the
//!   `RHMD_SERVE_FAULTS` environment variable by `rhmd serve` (or passed
//!   to [`crate::engine::Engine::start_with_faults`]). They perturb the
//!   scoring hot path itself — injected panics and non-finite scores — to
//!   exercise the poison-pill quarantine boundary in [`crate::engine`].
//! * [`WireFaults`] — client-side faults, applied by the chaos suites to
//!   the NDJSON frame stream before it reaches the parser: malformed and
//!   truncated frames, oversized payloads, duplicate and stale sequence
//!   numbers, and counter values no real PMU could produce. The parser and
//!   assembler must reject or repair every one of them with typed errors —
//!   never a panic, and never a changed verdict for an untargeted session.
//!
//! The fault grammar is `kind:rate[,kind:rate...][,seed:N]`, e.g.
//! `RHMD_SERVE_FAULTS="score_panic:0.05,score_nan:0.05,seed:7"`.

use rhmd_core::RhmdError;
use rhmd_trace::seed::splitmix64;

/// FNV-1a over `bytes`, folded through splitmix64 with `seed` and `salt` —
/// the deterministic coin every fault decision is derived from.
#[must_use]
pub fn fault_hash(seed: u64, salt: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h ^ splitmix64(seed ^ salt.rotate_left(17)))
}

/// Converts a hash to a uniform probability in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn parse_rate(kind: &str, v: &str) -> Result<f64, RhmdError> {
    let rate: f64 = v
        .parse()
        .map_err(|_| RhmdError::parse("fault spec", format!("{kind}: bad rate '{v}'")))?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(RhmdError::parse(
            "fault spec",
            format!("{kind}: rate must be in [0, 1], got {rate}"),
        ));
    }
    Ok(rate)
}

/// Server-side (engine) fault plane: deterministic, session-targeted
/// perturbations of the scoring path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineFaults {
    /// Probability that a session's rows panic inside `score_batch`.
    pub score_panic: f64,
    /// Probability that a session's scores come back non-finite.
    pub score_nan: f64,
    /// Seed for all fault decisions.
    pub seed: u64,
}

impl EngineFaults {
    /// Parses a `kind:rate[,seed:N]` spec.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Parse`] on unknown kinds or out-of-range rates.
    pub fn parse(spec: &str) -> Result<EngineFaults, RhmdError> {
        let mut f = EngineFaults::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, v) = item.split_once(':').ok_or_else(|| {
                RhmdError::parse("fault spec", format!("'{item}' is not kind:value"))
            })?;
            match kind.trim() {
                "score_panic" => f.score_panic = parse_rate(kind, v.trim())?,
                "score_nan" => f.score_nan = parse_rate(kind, v.trim())?,
                "seed" => {
                    f.seed = v.trim().parse().map_err(|_| {
                        RhmdError::parse("fault spec", format!("seed: bad value '{v}'"))
                    })?;
                }
                other => {
                    return Err(RhmdError::parse(
                        "fault spec",
                        format!(
                            "unknown engine fault '{other}' \
                             (known: score_panic, score_nan, seed)"
                        ),
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Reads the plane from `RHMD_SERVE_FAULTS` (absent/empty = no faults).
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Parse`] when the variable is set but malformed
    /// — a misconfigured chaos run must fail loudly at startup, not
    /// silently serve without faults.
    pub fn from_env() -> Result<EngineFaults, RhmdError> {
        match std::env::var("RHMD_SERVE_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => EngineFaults::parse(&spec),
            _ => Ok(EngineFaults::default()),
        }
    }

    /// Whether any fault kind is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.score_panic > 0.0 || self.score_nan > 0.0
    }

    fn targets(&self, rate: f64, salt: u64, tenant: &str, session: &str) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut key = Vec::with_capacity(tenant.len() + session.len() + 1);
        key.extend_from_slice(tenant.as_bytes());
        key.push(0xff);
        key.extend_from_slice(session.as_bytes());
        unit(fault_hash(self.seed, salt, &key)) < rate
    }

    /// Whether scoring any row of `(tenant, session)` must panic.
    #[must_use]
    pub fn panics(&self, tenant: &str, session: &str) -> bool {
        self.targets(self.score_panic, 0x70616e, tenant, session)
    }

    /// Whether `(tenant, session)`'s scores come back as NaN.
    #[must_use]
    pub fn nans(&self, tenant: &str, session: &str) -> bool {
        self.targets(self.score_nan, 0x6e616e, tenant, session)
    }

    /// Whether `(tenant, session)` is targeted by any enabled fault kind —
    /// i.e. expected to end quarantined rather than decided.
    #[must_use]
    pub fn quarantines(&self, tenant: &str, session: &str) -> bool {
        self.panics(tenant, session) || self.nans(tenant, session)
    }
}

/// Client-side (wire) fault plane: deterministic per-frame mutations of an
/// NDJSON session stream.
///
/// Every mutation is *recoverable by construction*: garbage frames draw a
/// typed error and are followed by the intact frame (modelling a
/// retransmit), and duplicate/stale frames are exact copies the server's
/// sequence filter drops — so a hardened server produces bit-identical
/// verdicts for every session, targeted or not. What the faults actually
/// test is that the parser, frame reader, and assembler *stay* hardened.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFaults {
    /// Fraction of sessions targeted by wire faults at all.
    pub target_rate: f64,
    /// P(frame is sent twice) for targeted sessions.
    pub dup: f64,
    /// P(the session's first frame is replayed after this one) — a stale,
    /// out-of-order re-delivery the sequence filter must drop.
    pub stale: f64,
    /// P(a malformed `{ nope` garbage frame precedes this one).
    pub malformed: f64,
    /// P(a truncated copy of this frame precedes the intact one).
    pub truncate: f64,
    /// P(an oversized (> frame cap) junk frame precedes this one).
    pub oversize: f64,
    /// P(a copy with a non-representable counter value precedes the intact
    /// frame): a float where a count belongs.
    pub nonfinite: f64,
    /// Seed for all per-frame decisions.
    pub seed: u64,
}

impl Default for WireFaults {
    fn default() -> WireFaults {
        WireFaults {
            target_rate: 0.0,
            dup: 0.0,
            stale: 0.0,
            malformed: 0.0,
            truncate: 0.0,
            oversize: 0.0,
            nonfinite: 0.0,
            seed: 0,
        }
    }
}

impl WireFaults {
    /// The chaos suites' mix: half the sessions targeted, every fault kind
    /// enabled at a visible rate.
    #[must_use]
    pub fn standard(seed: u64) -> WireFaults {
        WireFaults {
            target_rate: 0.5,
            dup: 0.10,
            stale: 0.05,
            malformed: 0.05,
            truncate: 0.05,
            oversize: 0.02,
            nonfinite: 0.05,
            seed,
        }
    }

    /// Parses a `kind:rate[,seed:N]` spec (kinds: `target`, `dup`,
    /// `stale`, `malformed`, `truncate`, `oversize`, `nonfinite`).
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Parse`] on unknown kinds or bad rates.
    pub fn parse(spec: &str) -> Result<WireFaults, RhmdError> {
        let mut f = WireFaults::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, v) = item.split_once(':').ok_or_else(|| {
                RhmdError::parse("chaos spec", format!("'{item}' is not kind:value"))
            })?;
            let v = v.trim();
            match kind.trim() {
                "target" => f.target_rate = parse_rate(kind, v)?,
                "dup" => f.dup = parse_rate(kind, v)?,
                "stale" => f.stale = parse_rate(kind, v)?,
                "malformed" => f.malformed = parse_rate(kind, v)?,
                "truncate" => f.truncate = parse_rate(kind, v)?,
                "oversize" => f.oversize = parse_rate(kind, v)?,
                "nonfinite" => f.nonfinite = parse_rate(kind, v)?,
                "seed" => {
                    f.seed = v.parse().map_err(|_| {
                        RhmdError::parse("chaos spec", format!("seed: bad value '{v}'"))
                    })?;
                }
                other => {
                    return Err(RhmdError::parse(
                        "chaos spec",
                        format!("unknown wire fault '{other}'"),
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Whether `session` receives wire faults at all.
    #[must_use]
    pub fn targets_session(&self, session: &str) -> bool {
        self.target_rate > 0.0
            && unit(fault_hash(self.seed, 0x746774, session.as_bytes())) < self.target_rate
    }

    fn roll(&self, session: &str, seq: u64, salt: u64) -> f64 {
        let mut key = Vec::with_capacity(session.len() + 8);
        key.extend_from_slice(session.as_bytes());
        key.extend_from_slice(&seq.to_le_bytes());
        unit(fault_hash(self.seed, salt, &key))
    }

    /// Expands one intact frame into the (possibly faulted) frame sequence
    /// actually sent. `first_frame` is the session's frame 0, replayed for
    /// stale-delivery faults. The intact frame always survives, so the
    /// *parsed* stream of a hardened server equals the clean stream.
    #[must_use]
    pub fn mutate(
        &self,
        session: &str,
        seq: u64,
        frame: &str,
        first_frame: &str,
    ) -> Vec<String> {
        if !self.targets_session(session) {
            return vec![frame.to_owned()];
        }
        let mut out = Vec::with_capacity(2);
        if self.roll(session, seq, 0x6d616c) < self.malformed {
            out.push("{\"Event\": nope".to_owned());
        }
        if self.roll(session, seq, 0x747263) < self.truncate && frame.len() > 2 {
            let cut = (frame.len() / 2..frame.len())
                .find(|&i| frame.is_char_boundary(i))
                .unwrap_or(frame.len());
            out.push(frame[..cut].to_owned());
        }
        if self.roll(session, seq, 0x6f7673) < self.oversize {
            let mut junk = String::with_capacity(crate::proto::MAX_FRAME_BYTES + 64);
            junk.push_str("{\"Event\":\"");
            while junk.len() <= crate::proto::MAX_FRAME_BYTES {
                junk.push_str("chaoschaoschaoschaos");
            }
            junk.push_str("\"}");
            out.push(junk);
        }
        if self.roll(session, seq, 0x6e6674) < self.nonfinite {
            // A float where a count belongs: the decoder must reject it.
            out.push(frame.replacen("\"instructions\":", "\"instructions\":1e999,\"x\":", 1));
        }
        out.push(frame.to_owned());
        if self.roll(session, seq, 0x647570) < self.dup {
            out.push(frame.to_owned());
        }
        if seq > 0 && self.roll(session, seq, 0x73746c) < self.stale {
            out.push(first_frame.to_owned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_spec_round_trip_and_errors() {
        let f = EngineFaults::parse("score_panic:0.25, score_nan:0.5, seed:9").unwrap();
        assert_eq!(f.score_panic, 0.25);
        assert_eq!(f.score_nan, 0.5);
        assert_eq!(f.seed, 9);
        assert!(f.is_active());
        assert!(!EngineFaults::parse("").unwrap().is_active());
        assert!(EngineFaults::parse("score_panic:2.0").is_err());
        assert!(EngineFaults::parse("bogus:0.1").is_err());
        assert!(EngineFaults::parse("score_panic").is_err());
    }

    #[test]
    fn targeting_is_deterministic_and_rate_shaped() {
        let f = EngineFaults {
            score_panic: 0.5,
            score_nan: 0.0,
            seed: 42,
        };
        let hits = (0..1000)
            .filter(|i| f.panics("t0", &format!("s{i}")))
            .count();
        assert!((300..700).contains(&hits), "rate far off: {hits}");
        for i in 0..50 {
            let s = format!("s{i}");
            assert_eq!(f.panics("t0", &s), f.panics("t0", &s));
        }
        // Zero rate targets nothing; quarantine set is the union.
        assert!(!f.nans("t0", "s1"));
        assert_eq!(f.quarantines("t0", "s1"), f.panics("t0", "s1"));
    }

    #[test]
    fn wire_mutation_keeps_the_intact_frame() {
        let f = WireFaults {
            target_rate: 1.0,
            dup: 1.0,
            stale: 1.0,
            malformed: 1.0,
            truncate: 1.0,
            oversize: 1.0,
            nonfinite: 1.0,
            seed: 1,
        };
        let frames = f.mutate("s0", 3, "{\"Event\":{\"instructions\":5}}", "FIRST");
        assert!(frames.contains(&"{\"Event\":{\"instructions\":5}}".to_owned()));
        assert!(frames.contains(&"FIRST".to_owned()));
        assert!(frames.iter().any(|l| l.len() > crate::proto::MAX_FRAME_BYTES));
        assert!(frames.iter().any(|l| l.contains("1e999")));
        // Untargeted sessions pass through untouched.
        let clean = WireFaults {
            target_rate: 0.0,
            ..f
        };
        assert_eq!(clean.mutate("s0", 3, "x", "y"), vec!["x".to_owned()]);
    }

    #[test]
    fn wire_spec_parses() {
        let f = WireFaults::parse("target:1.0,dup:0.5,seed:3").unwrap();
        assert_eq!(f.target_rate, 1.0);
        assert_eq!(f.dup, 0.5);
        assert_eq!(f.seed, 3);
        assert!(WireFaults::parse("dup:nope").is_err());
        assert!(WireFaults::parse("warp:0.1").is_err());
    }
}
