//! Property tests for the serving pipeline's load-bearing pieces:
//!
//! * the micro-batcher never loses, duplicates, or reorders a row across
//!   any interleaving of size-triggered and forced flushes;
//! * the engine emits exactly one verdict per offered session and keeps
//!   the accounting identity, across random loads and queue shapes —
//!   including runs where shedding kicks in and later recovers;
//! * the hostile-input boundary never panics: `parse_request` and the
//!   bounded frame reader accept arbitrary bytes, and the session
//!   sequence filter and snapshot/restore make duplicate/stale/out-of-order
//!   re-delivery and shard recovery invisible to window assembly;
//! * the single-pass request decoder agrees with the JSON tree path it
//!   replaced ([`request_from_tree`] over the parsed `serde::Value`) on
//!   rendered, reshaped, numerically odd, truncated and chaos-mutated
//!   frames: both return the same `Request`, or both fail. The
//!   differential properties use the default case count, which
//!   `PROPTEST_CASES` raises.
//!
//! The window assembler itself lives in `rhmd_features::window`, whose
//! differential suite pins it to the frozen batch aggregation.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rhmd_features::window::{RawWindow, Sealed, SUBWINDOW};
use rhmd_serve::batch::MicroBatcher;
use rhmd_serve::chaos::WireFaults;
use rhmd_serve::engine::{Engine, OutEvent};
use rhmd_serve::proto::{
    parse_request, validate_request, Request, Response, MAX_FRAME_BYTES, MAX_NESTING,
};
use rhmd_serve::queue::Watermarks;
use rhmd_serve::server::{read_frame, Frame};
use rhmd_serve::session::{SessionKey, SessionState};
use rhmd_serve::ServeConfig;
use serde::Value;
use std::fmt::Write as _;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// A synthetic subwindow whose channels are all derived from `fill`, so a
/// merge mistake in any channel shows up as inequality.
fn sub(fill: u16, salt: u16) -> RawWindow {
    let mut w = RawWindow {
        instructions: fill,
        ..RawWindow::default()
    };
    w.opcode_counts[(salt % 7) as usize] = fill / 2 + salt;
    w.mem_delta_hist[(salt % 5) as usize] = fill / 3 + 1;
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pushed row comes back exactly once, in push order, with its
    /// flat storage aligned to its entry — across any interleaving of
    /// size-triggered and forced (deadline/shutdown-style) flushes.
    #[test]
    fn batcher_neither_loses_nor_duplicates_rows(
        dims in 1usize..4,
        max_rows in 1usize..6,
        rows in 0usize..40,
        force_every in 1usize..9,
    ) {
        let now = Instant::now();
        let mut b = MicroBatcher::new(dims, max_rows, Duration::from_secs(60));
        let mut seen: Vec<(SessionKey, usize)> = Vec::new();
        for i in 0..rows {
            let key = SessionKey::new("t", &format!("s{}", i % 5));
            let row: Vec<f64> = (0..dims).map(|d| (i * dims + d) as f64).collect();
            let full = b.push(key, i, &row, now);
            prop_assert_eq!(full, b.len() >= max_rows);
            // Flush on the size trigger, plus forced flushes at an
            // arbitrary cadence (standing in for deadline expiry).
            if full || i % force_every == 0 {
                let taken = b.take();
                prop_assert_eq!(taken.flat.len(), taken.entries.len() * dims);
                for (r, entry) in taken.entries.iter().enumerate() {
                    let slot = entry.1;
                    // Row r's flat storage is the row pushed for slot r.
                    prop_assert_eq!(taken.flat[r * dims], (slot * dims) as f64);
                }
                seen.extend(taken.entries);
                prop_assert!(b.is_empty());
                prop_assert_eq!(b.deadline_at(), None);
            }
        }
        seen.extend(b.take().entries);
        prop_assert_eq!(seen.len(), rows);
        for (i, entry) in seen.iter().enumerate() {
            prop_assert_eq!(entry.1, i, "rows drain in push order, exactly once");
        }
    }

    /// The request parser and validator accept arbitrary bytes without
    /// panicking: hostile input draws `Ok` or a typed error, nothing else.
    /// (Runs both raw fuzz strings and JSON-shaped prefixes of real
    /// frames, which exercise deeper parser states.)
    #[test]
    fn parse_request_never_panics_on_arbitrary_input(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..128,
    ) {
        let s = String::from_utf8_lossy(&raw).into_owned();
        if let Ok(req) = parse_request(&s) {
            let _ = validate_request(&req);
        }
        // A truncated real frame must also die cleanly.
        let frame = r#"{"Event":{"tenant":"t","session":"s","seq":0,"window":{"instructions":1}}}"#;
        let cut = cut.min(frame.len());
        if let Some(prefix) = frame.get(..cut) {
            if let Ok(req) = parse_request(prefix) {
                let _ = validate_request(&req);
            }
        }
    }

    /// The bounded frame reader never panics on arbitrary byte streams,
    /// never yields a frame beyond the size cap, and always terminates.
    #[test]
    fn frame_reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut input = std::io::Cursor::new(bytes);
        let mut partial = Vec::new();
        loop {
            match read_frame(&mut input, &mut partial) {
                Frame::Line(line) => {
                    prop_assert!(line.len() <= rhmd_serve::proto::MAX_FRAME_BYTES);
                    // Whatever came out must feed the parser cleanly too.
                    if let Ok(req) = parse_request(&line) {
                        let _ = validate_request(&req);
                    }
                }
                Frame::Oversized(_) | Frame::Idle | Frame::Stalled => {}
                Frame::Eof { .. } => break,
            }
        }
    }

    /// Re-delivery chaos is invisible to assembly: a stream delivered with
    /// injected duplicates and stale replays (gated by the session
    /// sequence filter, exactly as the engine gates it) and a shard
    /// recovery (snapshot, then restore from the snapshot's cloned
    /// assembler) seals the same windows as the clean in-order stream.
    #[test]
    fn sequence_filter_makes_redelivery_invisible_to_assembly(
        fills in prop::collection::vec(1u16..=SUBWINDOW as u16, 1..24),
        per in 1u32..4,
        replays in prop::collection::vec((0usize..24, 0usize..24), 0..32),
        restore_at in 0usize..24,
        min_fill in prop::sample::select(vec![0.0, 0.5, 1.0]),
    ) {
        let period = per * SUBWINDOW;
        let subs: Vec<RawWindow> = fills
            .iter()
            .enumerate()
            .map(|(i, &f)| sub(f, i as u16))
            .collect();
        let now = Instant::now();
        let deliver = |chaos: bool| {
            let mut state = SessionState::new(period, min_fill, 0, now);
            let mut sealed = Vec::new();
            let mut push = |state: &mut SessionState, seq: u64, w: &RawWindow| {
                if state.admit_seq(seq).is_some() {
                    if let Some(Sealed::Window(out)) = state.assembler.push(w) {
                        sealed.push(*out);
                    }
                }
            };
            for (i, w) in subs.iter().enumerate() {
                if chaos && i == restore_at {
                    state = SessionState::restore(state.clone(), now);
                }
                push(&mut state, i as u64, w);
                if chaos {
                    // Replay arbitrary already-delivered frames (duplicates
                    // of the current one, stale older ones, in any order).
                    for &(at, j) in &replays {
                        if at == i && j <= i {
                            push(&mut state, j as u64, &subs[j]);
                        }
                    }
                }
            }
            sealed.extend(state.assembler.finish().and_then(Sealed::into_window));
            sealed
        };
        prop_assert_eq!(deliver(false), deliver(true));
    }

    /// One verdict per offered session and a closed accounting identity,
    /// for random session mixes and queue shapes — with and without
    /// shedding (tight queues + an initially stalled consumer force the
    /// shed path; the collector then recovers and drains everything).
    #[test]
    fn one_verdict_per_session_across_shed_and_recover(
        sessions in 1usize..24,
        events_per in 1usize..6,
        capacity in 2usize..32,
        stall_ms in 0u64..8,
    ) {
        let hmd = fixture::hmd();
        let high = (capacity / 2).max(1);
        let engine = Engine::start(
            hmd.clone(),
            ServeConfig {
                shards: 2,
                queue: Watermarks { capacity, high, low: high / 2 },
                output: Watermarks { capacity: 4096, high: 4096, low: 0 },
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let out = engine.output();
        let window = fixture::subwindow();
        let stats = std::thread::scope(|scope| {
            let collector = scope.spawn(|| {
                // A stalled start lets queues fill so some cases shed.
                std::thread::sleep(Duration::from_millis(stall_ms));
                let mut ids = Vec::new();
                while let Some(ev) = out.pop() {
                    match ev {
                        OutEvent::Response { response: Response::Verdict(v), .. } => {
                            ids.push(v.session);
                        }
                        OutEvent::Response { .. } => {}
                        OutEvent::Closed => break,
                    }
                }
                ids
            });
            for k in 0..sessions {
                let session = format!("s{k}");
                for seq in 0..events_per {
                    engine.submit_event(0, "t", &session, seq as u64, Box::new(window.clone()), None);
                }
                engine.submit_end(0, "t", &session);
            }
            let stats = engine.drain();
            let mut ids = collector.join().unwrap();
            ids.sort();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "no duplicate verdicts");
            assert_eq!(
                ids.len() as u64,
                stats.offered_sessions,
                "exactly one verdict line per offered session"
            );
            stats
        });
        prop_assert!(stats.accounted(), "identity violated: {:?}", stats);
        prop_assert_eq!(stats.offered_sessions, sessions as u64);
    }
}

/// A parsed JSON document, kept as its `serde::Value` tree.
struct Tree(Value);

impl serde::Deserialize for Tree {
    fn deserialize(value: &Value) -> Result<Tree, serde::Error> {
        Ok(Tree(value.clone()))
    }
}

/// The tree-path reading of a request the decoder replaced: one
/// externally-tagged object; a missing or `null` `deadline_ms` is `None`;
/// for a duplicate key the first one wins.
fn request_from_tree(value: &Value) -> Result<Request, serde::Error> {
    use serde::Deserialize as De;
    let entries = value.map()?;
    if entries.len() != 1 {
        return Err(serde::Error::msg(format!(
            "expected exactly one externally-tagged request object, found {} keys",
            entries.len()
        )));
    }
    let (tag, inner) = &entries[0];
    match tag.as_str() {
        "Event" => {
            let deadline = inner.map()?.iter().find(|(k, _)| k == "deadline_ms");
            Ok(Request::Event {
                tenant: De::deserialize(inner.field("tenant")?)?,
                session: De::deserialize(inner.field("session")?)?,
                seq: De::deserialize(inner.field("seq")?)?,
                window: De::deserialize(inner.field("window")?)?,
                deadline_ms: De::deserialize(deadline.map_or(&Value::Null, |(_, v)| v))?,
            })
        }
        "End" => Ok(Request::End {
            tenant: De::deserialize(inner.field("tenant")?)?,
            session: De::deserialize(inner.field("session")?)?,
        }),
        "Reload" => Ok(Request::Reload {
            model: De::deserialize(inner.field("model")?)?,
        }),
        "Stats" => inner.map().map(|_| Request::Stats {}),
        "Drain" => inner.map().map(|_| Request::Drain {}),
        other => Err(serde::Error::msg(format!("unknown request type `{other}`"))),
    }
}

/// The tree path the decoder replaced.
fn oracle(line: &str) -> Option<Request> {
    let Tree(value) = serde_json::from_str::<Tree>(line).ok()?;
    request_from_tree(&value).ok()
}

/// Describes how the decoder and the tree oracle disagree on `line`, if
/// they do.
fn disagreement(line: &str) -> Option<String> {
    let fast = parse_request(line).ok();
    let tree = oracle(line);
    (fast != tree).then(|| {
        let shown: String = line.chars().take(400).collect();
        format!("decoder {fast:?}\n   tree {tree:?}\n   line {shown:?}")
    })
}

fn assert_agree(line: &str) {
    if let Some(diff) = disagreement(line) {
        panic!("{diff}");
    }
}

/// A `seq` or deadline value: zero, small, near 2^53, or anywhere in u64.
fn counter(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => rng.gen_range(0..2_000),
        2 => (1u64 << 53) - rng.gen_range(0..3) + rng.gen_range(0..3),
        _ => rng.gen(),
    }
}

/// A window count: zero, small, at or just below `u16::MAX`, or anywhere
/// in u16.
fn count(rng: &mut SmallRng) -> u16 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => rng.gen_range(0..2_000),
        2 => u16::MAX - rng.gen_range(0..3),
        _ => rng.gen(),
    }
}

fn raw_window(rng: &mut SmallRng) -> RawWindow {
    let mut w = RawWindow {
        instructions: count(rng),
        ..RawWindow::default()
    };
    w.opcode_counts.iter_mut().for_each(|v| *v = count(rng));
    w.mem_delta_hist.iter_mut().for_each(|v| *v = count(rng));
    let mut channels = w.counters.to_array();
    channels.iter_mut().for_each(|v| *v = count(rng));
    w.counters = rhmd_uarch::CounterSet::from_array(channels);
    w
}

/// An identifier mixing plain ASCII with characters JSON must escape and
/// multibyte UTF-8 (empty and over-long ids included: validation, not the
/// decoder, rejects those).
fn id(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 12] = [
        "a", "t0", "s-17", "\"", "\\", "/", "\n", "\t", "\u{1}", "é", "日本", "🦀",
    ];
    let len = rng.gen_range(0..12);
    (0..len).map(|_| *PIECES.choose(rng).unwrap()).collect()
}

fn request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..8) {
        0 => Request::End {
            tenant: id(rng),
            session: id(rng),
        },
        1 => Request::Reload { model: id(rng) },
        2 => Request::Stats {},
        3 => Request::Drain {},
        _ => Request::Event {
            tenant: id(rng),
            session: id(rng),
            seq: counter(rng),
            window: Box::new(raw_window(rng)),
            deadline_ms: rng.gen_bool(0.5).then(|| counter(rng)),
        },
    }
}

fn render(request: &Request) -> String {
    serde_json::to_string(request).unwrap()
}

fn whitespace(rng: &mut SmallRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..3) {
        out.push(*[' ', ' ', '\t', '\r', '\n'].choose(rng).unwrap());
    }
}

/// Writes `s` as a JSON string, escaping each character that may be
/// escaped at random (and each that must be, always).
fn string(rng: &mut SmallRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some('"'),
            '\\' => Some('\\'),
            '/' => Some('/'),
            '\n' => Some('n'),
            '\r' => Some('r'),
            '\t' => Some('t'),
            '\u{8}' => Some('b'),
            '\u{c}' => Some('f'),
            _ => None,
        };
        let must = matches!(c, '"' | '\\' | '\n' | '\r');
        if must || rng.gen_bool(0.2) {
            match short {
                Some(e) if rng.gen_bool(0.5) => {
                    out.push('\\');
                    out.push(e);
                }
                // Astral characters have no single \u escape.
                _ if (c as u32) < 0x1_0000 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                _ => out.push(c),
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

/// A syntactically valid JSON value nested `depth` levels deep, with a
/// few scalar siblings per level (floats, negatives and `1e999` included:
/// any number is valid JSON where no field reads it).
fn junk(rng: &mut SmallRng, depth: usize, out: &mut String) {
    if depth == 0 {
        const SCALARS: [&str; 10] = [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "1e999",
            "-0.0e-3",
            "\"x\"",
            "18446744073709551615",
        ];
        out.push_str(SCALARS.choose(rng).unwrap());
        return;
    }
    let object = rng.gen_bool(0.5);
    out.push(if object { '{' } else { '[' });
    let nested_at = rng.gen_range(0..3);
    for i in 0..3 {
        if i > 0 {
            out.push(',');
        }
        whitespace(rng, out);
        if object {
            string(rng, &format!("k{i}"), out);
            out.push(':');
        }
        junk(rng, if i == nested_at { depth - 1 } else { 0 }, out);
    }
    out.push(if object { '}' } else { ']' });
}

/// Re-renders `value` with the same meaning: keys permuted, whitespace
/// between tokens, unknown keys added, keys duplicated after their first
/// occurrence (whose value wins), escapes sprinkled over keys and strings,
/// leading zeros and negative zeros on integers, and null `deadline_ms`
/// keys dropped.
fn reshape(rng: &mut SmallRng, value: &Value, top: bool, out: &mut String) {
    whitespace(rng, out);
    match value {
        Value::U64(n) => {
            if *n == 0 && rng.gen_bool(0.2) {
                out.push('-');
            }
            for _ in 0..rng.gen_range(0..3) / 2 {
                out.push('0');
            }
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => string(rng, s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reshape(rng, item, false, out);
            }
            whitespace(rng, out);
            out.push(']');
        }
        Value::Map(entries) => {
            let mut entries: Vec<(String, Option<&Value>)> = entries
                .iter()
                .filter(|(k, v)| !(k == "deadline_ms" && *v == Value::Null && rng.gen_bool(0.5)))
                .map(|(k, v)| (k.clone(), Some(v)))
                .collect();
            entries.shuffle(rng);
            // The request object itself must keep exactly one key.
            if !top {
                let known: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
                for _ in 0..rng.gen_range(0..3) {
                    let name = *["x", "", "extra", "seq", "loads", "window", "é\"k"]
                        .choose(rng)
                        .unwrap();
                    if !known.iter().any(|k| k == name) {
                        let at = rng.gen_range(0..=entries.len());
                        entries.insert(at, (name.to_owned(), None));
                    }
                }
                for _ in 0..rng.gen_range(0..3) {
                    if let Some(k) = known.choose(rng) {
                        let first = entries.iter().position(|(e, _)| e == k).unwrap();
                        let at = rng.gen_range(first + 1..=entries.len());
                        entries.insert(at, (k.clone(), None));
                    }
                }
            }
            out.push('{');
            for (i, (key, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                string(rng, key, out);
                whitespace(rng, out);
                out.push(':');
                match v {
                    Some(v) => reshape(rng, v, false, out),
                    None => {
                        let depth = rng.gen_range(0..=64);
                        junk(rng, depth, out);
                    }
                }
            }
            whitespace(rng, out);
            out.push('}');
        }
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            let _ = write!(out, "{x:?}");
        }
    }
    whitespace(rng, out);
}

/// The `k`-th node of `value` in preorder.
fn nth<'v>(value: &'v mut Value, k: &mut usize) -> Option<&'v mut Value> {
    if *k == 0 {
        return Some(value);
    }
    *k -= 1;
    match value {
        Value::Seq(items) => items.iter_mut().find_map(|v| nth(v, k)),
        Value::Map(entries) => entries.iter_mut().find_map(|(_, v)| nth(v, k)),
        _ => None,
    }
}

fn nodes(value: &Value) -> usize {
    1 + match value {
        Value::Seq(items) => items.iter().map(nodes).sum(),
        Value::Map(entries) => entries.iter().map(|(_, v)| nodes(v)).sum(),
        _ => 0,
    }
}

/// Every way to damage one node: drop one of an object's keys, grow or
/// shrink an array, or swap in a value of another kind.
fn damages(node: &Value) -> Vec<Value> {
    let mut out = vec![
        Value::Null,
        Value::Bool(true),
        Value::U64(7),
        Value::I64(-3),
        Value::F64(0.5),
        Value::Str("7".into()),
        Value::Seq(vec![]),
        Value::Map(vec![]),
    ];
    match node {
        Value::Map(entries) => out.extend((0..entries.len()).map(|i| {
            let mut fewer = entries.clone();
            fewer.remove(i);
            Value::Map(fewer)
        })),
        Value::Seq(items) => {
            let mut more = items.clone();
            more.push(Value::U64(1));
            out.push(Value::Seq(more));
            out.push(Value::Seq(items[..items.len().saturating_sub(1)].to_vec()));
        }
        _ => {}
    }
    out
}

/// Damages one random node of `value`.
fn damage(rng: &mut SmallRng, value: &mut Value) {
    let mut k = rng.gen_range(0..nodes(value));
    let node = nth(value, &mut k).unwrap();
    *node = damages(node).choose(rng).unwrap().clone();
}

proptest! {
    /// Frames exactly as clients render them decode to what the tree path
    /// reads, which is the request that was rendered.
    #[test]
    fn decoder_matches_tree_on_rendered_frames(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let req = request(&mut rng);
            let line = render(&req);
            prop_assert_eq!(parse_request(&line).ok(), Some(req.clone()));
            prop_assert_eq!(oracle(&line), Some(req));
        }
    }

    /// Reshaped frames (permuted, padded, extended, duplicated, escaped)
    /// mean the same request to both paths.
    #[test]
    fn decoder_matches_tree_on_reshaped_frames(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let req = request(&mut rng);
            let mut line = String::new();
            reshape(&mut rng, &serde::Serialize::serialize(&req), true, &mut line);
            prop_assert_eq!(disagreement(&line), None);
            prop_assert_eq!(parse_request(&line).ok(), Some(req));
        }
    }

    /// Frames with a key dropped, an array resized or a value of the wrong
    /// kind: both paths refuse them, or both read the same request (a
    /// damaged value that no field reads).
    #[test]
    fn decoder_matches_tree_on_damaged_frames(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let mut value = serde::Serialize::serialize(&request(&mut rng));
            for _ in 0..rng.gen_range(1..3) {
                damage(&mut rng, &mut value);
            }
            let mut line = String::new();
            reshape(&mut rng, &value, true, &mut line);
            prop_assert_eq!(disagreement(&line), None);
        }
    }

    /// Numeric edge cases in every kind of `u16` count slot and `u64`
    /// slot, and in a slot no field reads.
    #[test]
    fn decoder_matches_tree_on_numeric_edges(seed in any::<u64>()) {
        const SENTINEL: u64 = 4_242_424_242_424_242;
        const COUNT_SENTINEL: u16 = 42_424;
        const EDGES: [&str; 20] = [
            "18446744073709551615", "18446744073709551616", "99999999999999999999999",
            "4294967295", "4294967296", "65535", "65536",
            "-0", "-00", "-1", "007", "0", "1.0", "1e3", "1E3", "1e999", "-", "1-2", "-9223372036854775809", "00",
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w = raw_window(&mut rng);
        let slot = rng.gen_range(0..7);
        match slot {
            0 => w.instructions = COUNT_SENTINEL,
            1 => w.opcode_counts[rng.gen_range(0..w.opcode_counts.len())] = COUNT_SENTINEL,
            2 => w.mem_delta_hist[rng.gen_range(0..w.mem_delta_hist.len())] = COUNT_SENTINEL,
            3 => {
                let mut c = w.counters.to_array();
                c[rng.gen_range(0..c.len())] = COUNT_SENTINEL;
                w.counters = rhmd_uarch::CounterSet::from_array(c);
            }
            _ => {}
        }
        let event = Request::Event {
            tenant: id(&mut rng),
            session: id(&mut rng),
            seq: if slot == 4 { SENTINEL } else { counter(&mut rng) },
            window: Box::new(w),
            deadline_ms: Some(if slot == 5 { SENTINEL } else { counter(&mut rng) }),
        };
        let mut line = render(&event);
        if slot == 6 {
            line = line.replacen("\"seq\":", &format!("\"x\":{SENTINEL},\"seq\":"), 1);
        }
        let mark = if slot < 4 { COUNT_SENTINEL.to_string() } else { SENTINEL.to_string() };
        for edge in EDGES {
            let edged = line.replacen(&mark, edge, 1);
            prop_assert_eq!(disagreement(&edged), None);
        }
    }
}

#[test]
fn decoder_matches_tree_on_every_truncation_and_suffix() {
    let mut rng = SmallRng::seed_from_u64(13);
    let mut frames: Vec<String> = [
        Request::Event {
            tenant: "t0".into(),
            session: "s\"é🦀".into(),
            seq: 7,
            window: Box::new(fixture::subwindow()),
            deadline_ms: Some(250),
        },
        Request::End {
            tenant: "t0".into(),
            session: "s1".into(),
        },
        Request::Reload {
            model: "m.json".into(),
        },
        Request::Stats {},
        Request::Drain {},
    ]
    .iter()
    .map(render)
    .collect();
    let mut reshaped = String::new();
    let value = serde::Serialize::serialize(&request(&mut rng));
    reshape(&mut rng, &value, true, &mut reshaped);
    frames.push(reshaped);
    for frame in &frames {
        // Every byte prefix that is valid UTF-8.
        for prefix in (0..=frame.len()).filter_map(|cut| frame.get(..cut)) {
            assert_agree(prefix);
        }
        for suffix in [" \t", "x", "}", "]", ",", ",{}", "{}", "0", "\"\"", "\u{0}"] {
            assert_agree(&format!("{frame}{suffix}"));
        }
    }
}

#[test]
fn decoder_matches_tree_on_every_single_damage() {
    let requests = [
        Request::Event {
            tenant: "t0".into(),
            session: "s1".into(),
            seq: 3,
            window: Box::new(fixture::subwindow()),
            deadline_ms: Some(9),
        },
        Request::End {
            tenant: "t0".into(),
            session: "s1".into(),
        },
        Request::Reload {
            model: "m.json".into(),
        },
        Request::Stats {},
        Request::Drain {},
    ];
    let mut rng = SmallRng::seed_from_u64(31);
    for req in &requests {
        let value = serde::Serialize::serialize(req);
        for k in 0..nodes(&value) {
            let node = nth(&mut value.clone(), &mut k.clone()).unwrap().clone();
            for replacement in damages(&node) {
                let mut damaged = value.clone();
                *nth(&mut damaged, &mut k.clone()).unwrap() = replacement;
                let mut line = String::new();
                reshape(&mut rng, &damaged, true, &mut line);
                assert_agree(&line);
            }
        }
    }
}

#[test]
fn decoder_matches_tree_on_nesting_around_the_cap() {
    // The request object and the `Stats` body take two levels.
    for extra in MAX_NESTING - 4..=MAX_NESTING {
        let deep = format!("{}{}", "[".repeat(extra), "]".repeat(extra));
        let line = format!(r#"{{"Stats":{{"a":{deep}}}}}"#);
        assert_agree(&line);
        assert_eq!(parse_request(&line).is_ok(), extra + 2 <= MAX_NESTING);
        let event = render(&Request::End {
            tenant: "t".into(),
            session: "s".into(),
        })
        .replacen("{\"tenant\"", &format!("{{\"x\":{deep},\"tenant\""), 1);
        assert_agree(&event);
    }
}

#[test]
fn decoder_matches_tree_on_every_wire_fault() {
    let mut rng = SmallRng::seed_from_u64(29);
    let all = WireFaults {
        target_rate: 1.0,
        dup: 1.0,
        stale: 1.0,
        malformed: 1.0,
        truncate: 1.0,
        oversize: 1.0,
        nonfinite: 1.0,
        seed: 3,
    };
    let first = render(&Request::Event {
        tenant: "t0".into(),
        session: "s0".into(),
        seq: 0,
        window: Box::new(fixture::subwindow()),
        deadline_ms: None,
    });
    for seq in 0..3u64 {
        let frame = render(&Request::Event {
            tenant: "t0".into(),
            session: "s0".into(),
            seq,
            window: Box::new(raw_window(&mut rng)),
            deadline_ms: Some(seq),
        });
        for line in all.mutate("s0", seq, &frame, &first) {
            assert_agree(&line);
        }
    }
    // The chaos suites' standard mix, minus the (already covered) megabyte
    // junk frame.
    let standard = WireFaults {
        oversize: 0.0,
        ..WireFaults::standard(7)
    };
    for k in 0..64u64 {
        let session = format!("s{k}");
        let frame = render(&Request::Event {
            tenant: "t0".into(),
            session: session.clone(),
            seq: k % 5,
            window: Box::new(raw_window(&mut rng)),
            deadline_ms: None,
        });
        for line in standard.mutate(&session, k % 5, &frame, &first) {
            assert_agree(&line);
        }
    }
}

/// Half a million `[` fit under the frame cap; the decoder must refuse
/// them with a typed error (the tree parser used to recurse once per
/// bracket and abort the daemon on a stack overflow), and the connection
/// must keep working.
#[test]
fn deeply_nested_frame_is_a_typed_error_and_the_stream_survives() {
    let mut wire = Vec::new();
    for head in [
        r#"{"Stats":"#,
        r#"{"Stats":{"x":"#,
        r#"{"Event":{"tenant":"t","y":"#,
    ] {
        wire.extend_from_slice(head.as_bytes());
        wire.extend(std::iter::repeat_n(b'[', 500_000));
        wire.push(b'\n');
    }
    wire.extend_from_slice(b"{\"Stats\":{}}\n");
    let mut input = Cursor::new(wire);
    let mut partial = Vec::new();
    let mut next_line = || match read_frame(&mut input, &mut partial) {
        Frame::Line(line) => line,
        other => panic!("expected a frame, got {other:?}"),
    };
    for _ in 0..3 {
        let line = next_line();
        assert!(line.len() <= MAX_FRAME_BYTES);
        let err = parse_request(&line).unwrap_err();
        assert!(matches!(err, rhmd_core::RhmdError::Parse { .. }), "{err}");
        assert!(oracle(&line).is_none(), "the tree parser is capped too");
    }
    assert_eq!(parse_request(&next_line()).unwrap(), Request::Stats {});
}

/// A tenant of about a megabyte is read once, in linear time, and then
/// refused by validation (the tree path's scanner was quadratic: ~30 s).
#[test]
fn megabyte_tenant_is_rejected_in_linear_time() {
    let tenant: String = "tenant-é-".repeat((MAX_FRAME_BYTES - 4096) / 10);
    let frame = render(&Request::Event {
        tenant,
        session: "s".into(),
        seq: 0,
        window: Box::default(),
        deadline_ms: None,
    });
    assert!(frame.len() > MAX_FRAME_BYTES - 8192 && frame.len() <= MAX_FRAME_BYTES);
    let mut input = Cursor::new(format!("{frame}\n").into_bytes());
    let start = Instant::now();
    let Frame::Line(line) = read_frame(&mut input, &mut Vec::new()) else {
        panic!("a sub-cap frame must come through whole");
    };
    let err = parse_request(&line)
        .and_then(|r| validate_request(&r))
        .unwrap_err();
    assert!(err.to_string().contains("256-byte cap"), "{err}");
    assert!(oracle(&line).is_some());
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "took {took:?}");
}

/// Shared one-time fixtures: a trained tiny detector and a real traced
/// subwindow (training per proptest case would dominate the runtime).
mod fixture {
    use rhmd_core::hmd::Hmd;
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    use rhmd_features::vector::{FeatureKind, FeatureSpec};
    use rhmd_features::window::RawWindow;
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_uarch::CoreConfig;
    use std::sync::OnceLock;

    static FIXTURE: OnceLock<(Hmd, RawWindow)> = OnceLock::new();

    fn build() -> &'static (Hmd, RawWindow) {
        FIXTURE.get_or_init(|| {
            let config = CorpusConfig::tiny();
            let corpus = Corpus::build(&config);
            let splits = Splits::new(&corpus, config.seed);
            let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
            let hmd = Hmd::train(
                Algorithm::Lr,
                FeatureSpec::new(FeatureKind::Architectural, 2_000, vec![]),
                &TrainerConfig::default(),
                &traced,
                &splits.victim_train,
            );
            let window = traced.subwindows(0)[0].clone();
            (hmd, window)
        })
    }

    pub fn hmd() -> Hmd {
        build().0.clone()
    }

    pub fn subwindow() -> RawWindow {
        build().1.clone()
    }
}
