//! The NDJSON wire protocol of `rhmd serve`.
//!
//! One JSON document per line, externally tagged by message type (the tag
//! is the variant name, verbatim). Clients stream committed-event
//! subwindows per `(tenant, session)` pair and receive exactly one
//! `Verdict` line per offered session — decided, abstained, or shed —
//! plus replies to control messages:
//!
//! ```text
//! → {"Event":{"tenant":"t0","session":"s1","seq":0,"window":{...}}}
//! → {"End":{"tenant":"t0","session":"s1"}}
//! ← {"Verdict":{"tenant":"t0","session":"s1","verdict":"malware",...}}
//! → {"Reload":{"model":"models/new.json"}}
//! ← {"Reloaded":{"model":"models/new.json","config_hash":1234}}
//! → {"Stats":{}}
//! ← {"Stats":{...accounting counters...}}
//! ```
//!
//! `window` is a serialized [`RawWindow`] — the same representation the
//! tracing substrate produces, so any corpus replays over the wire without
//! translation.
//!
//! # Request grammar
//!
//! [`parse_request`] decodes a line in one pass, straight into a
//! [`Request`], in time linear in the line's length. It accepts exactly
//! what the JSON tree path it replaced accepted; that tree reading now
//! lives only in the serve property tests, as the decoder's differential
//! oracle:
//!
//! - keys may come in any order, with any JSON whitespace between tokens;
//! - unknown keys are ignored (their values must still be valid JSON), and
//!   for a duplicate key the first one wins;
//! - escaped keys and ids are decoded (`\"`, `\\`, `\/`, `\b`, `\f`,
//!   `\n`, `\r`, `\t`, and `\uXXXX` as `u32::from_str_radix` reads its
//!   four bytes, outside the surrogate range);
//! - an absent or `null` `deadline_ms` becomes `None`;
//! - the outer object has exactly one key, the variant name, and the
//!   `Stats`/`Drain` bodies must be objects (their contents are ignored);
//! - `u64` fields take digits only (leading zeros allowed) up to
//!   `u64::MAX`, or a negative zero such as `-0`; floats, other negatives
//!   and larger values are rejected;
//! - `opcode_counts` and `mem_delta_hist` must have exactly their fixed
//!   lengths, and every `window` and `counters` field must be present;
//! - nesting deeper than [`MAX_NESTING`] levels, counting the request
//!   object as level 1, is rejected;
//! - trailing bytes after the request object are rejected.

use rhmd_features::window::RawWindow;
use rhmd_uarch::events::{CounterSet, COUNTER_DIMS, COUNTER_NAMES};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Hard cap on one NDJSON frame, in bytes. Longer frames are drained and
/// rejected with a typed error — an attacker-sized payload must cost the
/// server bounded memory, not an allocation proportional to the payload.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Deepest array/object nesting a request line may contain, counting the
/// request object itself as level 1 (the same cap as the vendored
/// `serde_json`). Deeper lines are rejected with a typed error.
pub const MAX_NESTING: usize = 128;

/// Hard cap on tenant and session identifier length, in bytes.
pub const MAX_ID_BYTES: usize = 256;

/// Hard cap on any single counter value in a submitted window: `u16::MAX`,
/// the width of a subwindow count ([`RawWindow`]; a subwindow of at most
/// 1,000 instructions counts at most 2,000 events per channel). The
/// decoder rejects a larger value as a parse error; a session's collection
/// windows sum these counts at 64-bit width, so assembly cannot overflow
/// either.
pub const MAX_COUNTER: u64 = u16::MAX as u64;

/// A client → server message, decoded from the wire by [`parse_request`].
///
/// Optional fields like `deadline_ms` may be omitted on the wire —
/// robustness demands the parser accept yesterday's frames, not just its
/// own round trips.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Request {
    /// One committed-event subwindow for a session, with its stream
    /// sequence number (gaps are tolerated; duplicate and stale sequence
    /// numbers are dropped as re-deliveries).
    Event {
        /// Tenant owning the session.
        tenant: String,
        /// Session identifier, unique within the tenant.
        session: String,
        /// Zero-based subwindow sequence number.
        seq: u64,
        /// The raw subwindow statistics.
        window: Box<RawWindow>,
        /// Optional verdict deadline in milliseconds from this frame's
        /// arrival; past it the session finalizes as an explicit
        /// `abstain`/`deadline` rather than stalling the caller. The
        /// earliest deadline across a session's frames wins.
        deadline_ms: Option<u64>,
    },
    /// End of a session's stream: assemble, score, and emit its verdict.
    End {
        /// Tenant owning the session.
        tenant: String,
        /// Session identifier.
        session: String,
    },
    /// Hot-reload the model from a path; rejected (keeping the old model)
    /// unless the new model's feature-spec config hash matches.
    Reload {
        /// Path to a model JSON file written by `rhmd train --out`.
        model: String,
    },
    /// Request an accounting snapshot.
    Stats {},
    /// Begin graceful drain (same as EOF / SIGTERM).
    Drain {},
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Terminal outcome for one session. Exactly one per offered session.
    Verdict(VerdictMsg),
    /// A successful hot reload.
    Reloaded {
        /// The model path that was loaded.
        model: String,
        /// The (unchanged) feature-spec config hash now serving.
        config_hash: u64,
    },
    /// An accounting snapshot.
    Stats(StatsMsg),
    /// A request-level error (bad line, rejected reload, draining).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Drain finished; no further messages follow.
    Drained(StatsMsg),
}

/// Terminal outcome for one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictMsg {
    /// Tenant owning the session.
    pub tenant: String,
    /// Session identifier.
    pub session: String,
    /// `"malware"`, `"benign"`, or `"abstain"`.
    pub verdict: String,
    /// Why an abstention happened (`"coverage"`, `"shed"`, `"deadline"`,
    /// `"tenant-deadline"`, `"quarantine"`, `"shard-down"`, `"drain"`);
    /// `null` for decisions.
    pub reason: Option<String>,
    /// Collection windows that produced a vote.
    pub voted: usize,
    /// Collection windows the detector abstained on.
    pub abstained: usize,
    /// Fraction of voting windows that flagged malware.
    pub flag_rate: f64,
}

impl VerdictMsg {
    /// Whether this session got a decision (rather than an abstention).
    pub fn is_decided(&self) -> bool {
        self.verdict != "abstain"
    }
}

/// Accounting counters, disjoint by terminal state:
/// `offered_sessions == decided + abstained + shed_sessions + quarantined`.
///
/// `Deserialize` is hand-written with missing-counter-defaults-to-zero
/// semantics, so stats emitted by older builds (without the chaos
/// counters) still parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StatsMsg {
    /// Sessions the service has seen a first message for.
    pub offered_sessions: u64,
    /// Sessions that ended with a decision.
    pub decided: u64,
    /// Sessions that ended abstained (coverage, deadline, drain).
    pub abstained: u64,
    /// Sessions refused or degraded by load-shedding (their verdict line is
    /// an abstention with reason `"shed"`, counted here, not in
    /// `abstained`).
    pub shed_sessions: u64,
    /// Sessions isolated by the poison-pill boundary: their windows made
    /// the scorer panic or produce non-finite scores, so they were
    /// finalized as `abstain`/`quarantine` and their remaining input is
    /// dropped at the door. Counted here, not in `abstained`.
    pub quarantined: u64,
    /// Subwindow events accepted into shard queues.
    pub offered_events: u64,
    /// Subwindow events dropped by load-shedding.
    pub shed_events: u64,
    /// Stale or duplicate subwindow frames dropped by the sequence filter
    /// (re-deliveries repaired away, not verdict-affecting).
    pub stale_frames: u64,
    /// Shard workers restarted by the supervisor after a death.
    pub shard_restarts: u64,
    /// Successful hot reloads.
    pub reloads_ok: u64,
    /// Rejected hot reloads (config-hash mismatch or unreadable model).
    pub reloads_rejected: u64,
}

impl StatsMsg {
    /// The no-silent-drops identity: every offered session reached exactly
    /// one terminal state.
    pub fn accounted(&self) -> bool {
        self.offered_sessions
            == self.decided + self.abstained + self.shed_sessions + self.quarantined
    }
}

/// Looks up `name` in a map value, treating a missing key as JSON `null`
/// (the lenient accessor behind `StatsMsg`'s missing counters).
fn opt_field<'a>(value: &'a serde::Value, name: &str) -> &'a serde::Value {
    static NULL: serde::Value = serde::Value::Null;
    match value {
        serde::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == name)
            .map_or(&NULL, |(_, v)| v),
        _ => &NULL,
    }
}

impl serde::Deserialize for StatsMsg {
    fn deserialize(value: &serde::Value) -> Result<StatsMsg, serde::Error> {
        fn counter(value: &serde::Value, name: &str) -> Result<u64, serde::Error> {
            match opt_field(value, name) {
                serde::Value::Null => Ok(0),
                v => serde::Deserialize::deserialize(v),
            }
        }
        value.map()?;
        Ok(StatsMsg {
            offered_sessions: counter(value, "offered_sessions")?,
            decided: counter(value, "decided")?,
            abstained: counter(value, "abstained")?,
            shed_sessions: counter(value, "shed_sessions")?,
            quarantined: counter(value, "quarantined")?,
            offered_events: counter(value, "offered_events")?,
            shed_events: counter(value, "shed_events")?,
            stale_frames: counter(value, "stale_frames")?,
            shard_restarts: counter(value, "shard_restarts")?,
            reloads_ok: counter(value, "reloads_ok")?,
            reloads_rejected: counter(value, "reloads_rejected")?,
        })
    }
}

/// Validates a parsed request's identifiers: rejects empty or oversized
/// tenant and session ids. (Counter values past [`MAX_COUNTER`] cannot be
/// represented in a [`RawWindow`]; the decoder already rejected them.) Pure
/// reject-or-accept — a hostile frame draws a typed error, never a panic or
/// a silently-garbled feature row.
///
/// # Errors
///
/// Returns [`rhmd_core::RhmdError::Parse`] naming the offending field.
pub fn validate_request(request: &Request) -> Result<(), rhmd_core::RhmdError> {
    fn check_id(what: &str, id: &str) -> Result<(), rhmd_core::RhmdError> {
        if id.is_empty() {
            return Err(rhmd_core::RhmdError::parse(what, "must not be empty"));
        }
        if id.len() > MAX_ID_BYTES {
            return Err(rhmd_core::RhmdError::parse(
                what,
                format!("{} bytes exceeds the {MAX_ID_BYTES}-byte cap", id.len()),
            ));
        }
        Ok(())
    }
    match request {
        Request::Event {
            tenant, session, ..
        }
        | Request::End { tenant, session } => {
            check_id("tenant", tenant)?;
            check_id("session", session)
        }
        Request::Reload { .. } | Request::Stats {} | Request::Drain {} => Ok(()),
    }
}

/// Parses one NDJSON request line in a single pass (see the module docs
/// for the accepted grammar). Time is linear in the line's length and
/// nesting is capped at [`MAX_NESTING`].
///
/// # Errors
///
/// Returns [`rhmd_core::RhmdError::Parse`] with the offending line's
/// prefix on malformed input.
pub fn parse_request(line: &str) -> Result<Request, rhmd_core::RhmdError> {
    Decoder::new(line).request().map_err(|e| {
        let prefix: String = line.chars().take(64).collect();
        rhmd_core::RhmdError::parse(format!("request line '{prefix}'"), e)
    })
}

/// Decodes a request line straight into [`Request`], with no intermediate
/// JSON tree. Every rule mirrors the vendored `serde_json` tree parser plus
/// the derived `Deserialize` impls of the payload types, so the decoder
/// accepts exactly the lines the tree path accepts (`tests/prop_serve.rs`
/// keeps that tree reading as its oracle and checks this differentially).
struct Decoder<'a> {
    line: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

type Decoded<T> = Result<T, String>;

impl<'a> Decoder<'a> {
    fn new(line: &'a str) -> Decoder<'a> {
        Decoder {
            line,
            bytes: line.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn fail<T>(&self, what: impl std::fmt::Display) -> Decoded<T> {
        Err(format!("{what} at offset {}", self.pos))
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, byte: u8) -> Decoded<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(format_args!("expected `{}`", byte as char))
        }
    }

    fn keyword(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    fn enter(&mut self) -> Decoded<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return self.fail(format_args!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    fn required<T>(&self, value: Option<T>, name: &str) -> Decoded<T> {
        match value {
            Some(v) => Ok(v),
            None => self.fail(format_args!("missing field `{name}`")),
        }
    }

    fn request(&mut self) -> Decoded<Request> {
        self.expect(b'{')?;
        self.enter()?;
        if self.peek() == Some(b'}') {
            return self
                .fail("expected exactly one externally-tagged request object, found 0 keys");
        }
        let tag = self.string()?;
        self.expect(b':')?;
        let request = match &*tag {
            "Event" => self.event()?,
            "End" => {
                let (tenant, session) = self.ids()?;
                Request::End { tenant, session }
            }
            "Reload" => {
                let mut model = None;
                self.object(|d, key| {
                    match key {
                        "model" if model.is_none() => model = Some(d.string()?.into_owned()),
                        _ => d.skip_value()?,
                    }
                    Ok(())
                })?;
                Request::Reload {
                    model: self.required(model, "model")?,
                }
            }
            "Stats" => {
                self.empty_body()?;
                Request::Stats {}
            }
            "Drain" => {
                self.empty_body()?;
                Request::Drain {}
            }
            other => return Err(format!("unknown request type `{other}`")),
        };
        match self.peek() {
            Some(b'}') => self.pos += 1,
            Some(b',') => {
                return self.fail("expected exactly one externally-tagged request object")
            }
            _ => return self.fail("expected `}`"),
        }
        if self.peek().is_some() {
            return self.fail("trailing characters");
        }
        Ok(request)
    }

    fn event(&mut self) -> Decoded<Request> {
        let (mut tenant, mut session, mut seq, mut window, mut deadline_ms) =
            (None, None, None, None, None);
        self.object(|d, key| {
            match key {
                "tenant" if tenant.is_none() => tenant = Some(d.string()?.into_owned()),
                "session" if session.is_none() => session = Some(d.string()?.into_owned()),
                "seq" if seq.is_none() => seq = Some(d.u64()?),
                "window" if window.is_none() => window = Some(d.window()?),
                "deadline_ms" if deadline_ms.is_none() => {
                    deadline_ms = Some(if d.peek() == Some(b'n') && d.keyword("null") {
                        None
                    } else {
                        Some(d.u64()?)
                    });
                }
                _ => d.skip_value()?,
            }
            Ok(())
        })?;
        Ok(Request::Event {
            tenant: self.required(tenant, "tenant")?,
            session: self.required(session, "session")?,
            seq: self.required(seq, "seq")?,
            window: self.required(window, "window")?,
            deadline_ms: deadline_ms.flatten(),
        })
    }

    /// The `End` body: a tenant and a session id.
    fn ids(&mut self) -> Decoded<(String, String)> {
        let (mut tenant, mut session) = (None, None);
        self.object(|d, key| {
            match key {
                "tenant" if tenant.is_none() => tenant = Some(d.string()?.into_owned()),
                "session" if session.is_none() => session = Some(d.string()?.into_owned()),
                _ => d.skip_value()?,
            }
            Ok(())
        })?;
        Ok((
            self.required(tenant, "tenant")?,
            self.required(session, "session")?,
        ))
    }

    /// A `Stats`/`Drain` body: any object, contents ignored.
    fn empty_body(&mut self) -> Decoded<()> {
        if self.peek() != Some(b'{') {
            return self.fail("expected object");
        }
        self.skip_value()
    }

    /// The `window` body, decoded in place into a [`RawWindow`].
    fn window(&mut self) -> Decoded<Box<RawWindow>> {
        const ALL: u8 = 0b1111;
        let mut window = Box::<RawWindow>::default();
        let mut seen = 0u8;
        self.object(|d, key| {
            let bit = match key {
                "instructions" => 1,
                "opcode_counts" => 2,
                "mem_delta_hist" => 4,
                "counters" => 8,
                _ => 0,
            };
            if bit == 0 || seen & bit != 0 {
                return d.skip_value();
            }
            seen |= bit;
            match bit {
                1 => window.instructions = d.count()?,
                2 => d.count_array(&mut window.opcode_counts)?,
                4 => d.count_array(&mut window.mem_delta_hist)?,
                _ => window.counters = d.counters()?,
            }
            Ok(())
        })?;
        if seen != ALL {
            return self.fail("missing field in `window`");
        }
        Ok(window)
    }

    /// The `counters` body: each field lands at its [`COUNTER_NAMES`] index.
    fn counters(&mut self) -> Decoded<CounterSet<u16>> {
        const ALL: u32 = (1 << COUNTER_DIMS) - 1;
        let mut values = [0u16; COUNTER_DIMS];
        let mut seen = 0u32;
        self.object(
            |d, key| match COUNTER_NAMES.iter().position(|&name| name == key) {
                Some(i) if seen & (1 << i) == 0 => {
                    seen |= 1 << i;
                    values[i] = d.count()?;
                    Ok(())
                }
                _ => d.skip_value(),
            },
        )?;
        if seen != ALL {
            return self.fail("missing field in `counters`");
        }
        Ok(CounterSet::from_array(values))
    }

    /// Walks one object, handing each decoded key to `field`, which must
    /// consume the value.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Decoded<()>) -> Decoded<()> {
        self.expect(b'{')?;
        self.enter()?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    /// A fixed-length array of counts, filled in place.
    fn count_array(&mut self, out: &mut [u16]) -> Decoded<()> {
        self.expect(b'[')?;
        self.enter()?;
        let mut len = 0;
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                let Some(slot) = out.get_mut(len) else {
                    return self.fail(format_args!("expected an array of length {}", out.len()));
                };
                *slot = self.count()?;
                len += 1;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.fail("expected `,` or `]`"),
                }
            }
        }
        self.depth -= 1;
        if len != out.len() {
            return self.fail(format_args!("expected an array of length {}", out.len()));
        }
        Ok(())
    }

    /// A window count: an unsigned integer (see [`Self::u64`]) no larger
    /// than [`MAX_COUNTER`].
    fn count(&mut self) -> Decoded<u16> {
        let n = self.u64()?;
        match u16::try_from(n) {
            Ok(count) => Ok(count),
            Err(_) => self.fail(format_args!(
                "counter value {n} exceeds the u16 cap ({MAX_COUNTER})"
            )),
        }
    }

    /// An unsigned integer: digits only (leading zeros allowed) up to
    /// `u64::MAX`, or a negative zero such as `-0`. A float's `.`, `e` or
    /// sign after the digits is left for the enclosing container, whose
    /// separator check rejects it.
    fn u64(&mut self) -> Decoded<u64> {
        match self.peek() {
            Some(b'0'..=b'9') => {
                let mut n = 0u64;
                while let Some(&b) = self.bytes.get(self.pos) {
                    if !b.is_ascii_digit() {
                        break;
                    }
                    let Some(next) = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(b - b'0')))
                    else {
                        return self.fail("integer out of range for u64");
                    };
                    n = next;
                    self.pos += 1;
                }
                Ok(n)
            }
            Some(b'-') => match self.number() {
                (text, false) if text.parse::<i64>() == Ok(0) => Ok(0),
                _ => self.fail("expected unsigned integer"),
            },
            _ => self.fail("expected unsigned integer"),
        }
    }

    /// Scans a number token the way the tree parser does: an optional `-`,
    /// then any run of digits and `.eE+-`. Also says whether the token is
    /// a float, i.e. holds anything past a leading `-` besides digits.
    fn number(&mut self) -> (&'a str, bool) {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        (&self.line[start..self.pos], float)
    }

    /// The next string token, borrowed from the line unless it holds
    /// escapes. Each run between escapes is copied once.
    fn string(&mut self) -> Decoded<Cow<'a, str>> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(end) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|i| start + i)
            else {
                self.pos = self.bytes.len();
                return self.fail("unterminated string");
            };
            let run = &self.line[start..end];
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Decoded<char> {
        let c = match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let Some(hex) = self.line.get(self.pos + 1..self.pos + 5) else {
                    return self.fail("truncated \\u escape");
                };
                let Some(c) = u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) else {
                    return self.fail("invalid \\u escape");
                };
                self.pos += 4;
                c
            }
            _ => return self.fail("invalid escape sequence"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Validates and discards one value of any shape, iteratively: bit 0
    /// of `objects` says whether the innermost open container is an object,
    /// and the nesting cap bounds the stack to 128 bits.
    fn skip_value(&mut self) -> Decoded<()> {
        let mut objects = 0u128;
        let mut open = 0usize;
        loop {
            match self.peek() {
                Some(b @ (b'{' | b'[')) => {
                    self.pos += 1;
                    self.enter()?;
                    let object = b == b'{';
                    objects = (objects << 1) | u128::from(object);
                    open += 1;
                    if self.peek() == Some(if object { b'}' } else { b']' }) {
                        self.pos += 1;
                        objects >>= 1;
                        open -= 1;
                        self.depth -= 1;
                    } else {
                        if object {
                            self.string()?;
                            self.expect(b':')?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    let valid = match self.number() {
                        (text, true) => text.parse::<f64>().is_ok(),
                        (text, false) if text.starts_with('-') => text.parse::<i64>().is_ok(),
                        (text, false) => text.parse::<u64>().is_ok(),
                    };
                    if !valid {
                        return self.fail("invalid number");
                    }
                }
                Some(b'n') if self.keyword("null") => {}
                Some(b't') if self.keyword("true") => {}
                Some(b'f') if self.keyword("false") => {}
                Some(_) => return self.fail("unexpected character"),
                None => return self.fail("unexpected end of input"),
            }
            // A value ended: close containers until one continues.
            loop {
                if open == 0 {
                    return Ok(());
                }
                let object = objects & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if object {
                            self.string()?;
                            self.expect(b':')?;
                        }
                        break;
                    }
                    Some(b'}') if object => {}
                    Some(b']') if !object => {}
                    _ => return self.fail("expected `,` or a closing bracket"),
                }
                self.pos += 1;
                objects >>= 1;
                open -= 1;
                self.depth -= 1;
            }
        }
    }
}

/// Serializes a response as one NDJSON line (no trailing newline).
///
/// # Panics
///
/// Never panics in practice: every `Response` variant is a closed data
/// type with no non-serializable fields.
pub fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("responses always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            Request::Event {
                tenant: "t".into(),
                session: "s".into(),
                seq: 3,
                window: Box::default(),
                deadline_ms: None,
            },
            Request::Event {
                tenant: "t".into(),
                session: "s".into(),
                seq: 4,
                window: Box::default(),
                deadline_ms: Some(250),
            },
            Request::End {
                tenant: "t".into(),
                session: "s".into(),
            },
            Request::Reload {
                model: "m.json".into(),
            },
            Request::Stats {},
            Request::Drain {},
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'));
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::Verdict(VerdictMsg {
            tenant: "t".into(),
            session: "s".into(),
            verdict: "abstain".into(),
            reason: Some("shed".into()),
            voted: 0,
            abstained: 2,
            flag_rate: 0.0,
        });
        let line = render_response(&resp);
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn malformed_line_is_typed_parse_error() {
        let err = parse_request("{ nope").unwrap_err();
        assert!(matches!(err, rhmd_core::RhmdError::Parse { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn accounting_identity() {
        let mut s = StatsMsg {
            offered_sessions: 10,
            decided: 6,
            abstained: 2,
            shed_sessions: 1,
            quarantined: 1,
            ..StatsMsg::default()
        };
        assert!(s.accounted());
        s.quarantined = 0;
        assert!(!s.accounted());
    }

    #[test]
    fn stats_without_quarantine_field_still_parses() {
        let line = r#"{"offered_sessions":2,"decided":2,"abstained":0,
            "shed_sessions":0,"offered_events":4,"shed_events":0,
            "reloads_ok":0,"reloads_rejected":0}"#;
        let s: StatsMsg = serde_json::from_str(line).unwrap();
        assert_eq!(s.quarantined, 0);
        assert!(s.accounted());
    }

    #[test]
    fn validation_rejects_hostile_identifiers_and_counters() {
        let ok = Request::Event {
            tenant: "t".into(),
            session: "s".into(),
            seq: 0,
            window: Box::default(),
            deadline_ms: None,
        };
        assert!(validate_request(&ok).is_ok());

        let empty_tenant = Request::End {
            tenant: String::new(),
            session: "s".into(),
        };
        assert!(validate_request(&empty_tenant).is_err());

        let long_session = Request::End {
            tenant: "t".into(),
            session: "s".repeat(MAX_ID_BYTES + 1),
        };
        assert!(validate_request(&long_session).is_err());
    }

    /// A window count past `u16::MAX`, in any kind of count slot, is a
    /// parse error; `u16::MAX` itself decodes exactly.
    #[test]
    fn window_counts_past_u16_are_parse_errors() {
        const MARK: u16 = 42_424;
        let slots: [fn(&mut RawWindow, u16); 4] = [
            |w, v| w.instructions = v,
            |w, v| w.opcode_counts[5] = v,
            |w, v| w.mem_delta_hist[15] = v,
            |w, v| w.counters.l2_misses = v,
        ];
        for set in slots {
            let event = |value: u16| {
                let mut window = RawWindow::default();
                set(&mut window, value);
                Request::Event {
                    tenant: "t".into(),
                    session: "s".into(),
                    seq: 0,
                    window: Box::new(window),
                    deadline_ms: None,
                }
            };
            let frame = serde_json::to_string(&event(MARK)).unwrap();
            let at_max = frame.replace(&MARK.to_string(), &MAX_COUNTER.to_string());
            assert_eq!(parse_request(&at_max).unwrap(), event(u16::MAX));
            let past = frame.replace(&MARK.to_string(), &(MAX_COUNTER + 1).to_string());
            let err = parse_request(&past).unwrap_err();
            assert!(matches!(err, rhmd_core::RhmdError::Parse { .. }));
            assert!(err.to_string().contains("exceeds the u16 cap"), "{err}");
        }
    }
}
