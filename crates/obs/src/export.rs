//! Event-stream exporters (JSONL and Chrome `trace_event` JSON) and the
//! one JSON reader that checks them ([`Json`], [`json_is_well_formed`]).
//!
//! Both formats are built by hand — every field is numeric or a fixed
//! label from a closed set, so no escaping machinery is needed and the
//! repo keeps its no-external-deps discipline. The Chrome writer emits
//! the JSON-object form (`{"traceEvents": [...]}`), which loads directly
//! in `about:tracing` and Perfetto: each worm becomes a thread (`tid` =
//! worm id) carrying a `B`/`E` duration slice from injection to
//! delivery, with instant events for route decisions, lane grants and
//! stalls layered on top. One simulation cycle is mapped to one
//! microsecond of trace time.

use crate::events::WormEvent;
use std::fmt::Write as _;

/// Format an f64 as a JSON number: integral values as `N.0`, others in
/// Rust's shortest round-trip form.
fn json_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{}", x)
    }
}

/// Render one event as a single JSON object (no trailing newline).
pub fn event_to_json(ev: &WormEvent) -> String {
    match *ev {
        WormEvent::Inject { t, worm, src, dest } => {
            format!(r#"{{"t":{t},"ev":"inject","worm":{worm},"src":{src},"dest":{dest}}}"#)
        }
        WormEvent::RouteChosen { t, worm, station } => {
            format!(r#"{{"t":{t},"ev":"route","worm":{worm},"station":{station}}}"#)
        }
        WormEvent::LaneGrant {
            t,
            worm,
            channel,
            lane,
        } => {
            format!(r#"{{"t":{t},"ev":"lane_grant","worm":{worm},"ch":{channel},"lane":{lane}}}"#)
        }
        WormEvent::Stall { t, worm, cause } => {
            format!(
                r#"{{"t":{t},"ev":"stall","worm":{worm},"cause":"{}"}}"#,
                cause.label()
            )
        }
        WormEvent::Drain { t, worm } => {
            format!(r#"{{"t":{t},"ev":"drain","worm":{worm}}}"#)
        }
        WormEvent::Deliver { t, worm, latency } => {
            format!(r#"{{"t":{t},"ev":"deliver","worm":{worm},"latency":{latency}}}"#)
        }
    }
}

/// Render the event stream as JSONL: one JSON object per line.
pub fn events_to_jsonl(events: &[WormEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

fn chrome_event(out: &mut String, ev: &WormEvent, pid: u32) {
    let ts = json_num(ev.time() as f64);
    match *ev {
        WormEvent::Inject {
            worm, src, dest, ..
        } => {
            let _ = write!(
                out,
                r#"{{"name":"worm {worm}","cat":"worm","ph":"B","ts":{ts},"pid":{pid},"tid":{worm},"args":{{"src":{src},"dest":{dest}}}}}"#
            );
        }
        WormEvent::Deliver { worm, latency, .. } => {
            let _ = write!(
                out,
                r#"{{"name":"worm {worm}","cat":"worm","ph":"E","ts":{ts},"pid":{pid},"tid":{worm},"args":{{"latency":{latency}}}}}"#
            );
        }
        WormEvent::RouteChosen { worm, station, .. } => {
            let _ = write!(
                out,
                r#"{{"name":"route st{station}","cat":"route","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{worm}}}"#
            );
        }
        WormEvent::LaneGrant {
            worm,
            channel,
            lane,
            ..
        } => {
            let _ = write!(
                out,
                r#"{{"name":"grant ch{channel}.{lane}","cat":"grant","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{worm}}}"#
            );
        }
        WormEvent::Stall { worm, cause, .. } => {
            let _ = write!(
                out,
                r#"{{"name":"stall {}","cat":"stall","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{worm}}}"#,
                cause.label()
            );
        }
        WormEvent::Drain { worm, .. } => {
            let _ = write!(
                out,
                r#"{{"name":"drain","cat":"drain","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{worm}}}"#
            );
        }
    }
}

/// One sample on a Chrome counter track: named series values at cycle `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Cycle of the sample (mapped to trace microseconds).
    pub t: u64,
    /// `(series name, value)` pairs plotted stacked by the viewer.
    pub values: Vec<(String, f64)>,
}

/// A named counter track rendered as `"ph":"C"` events — the Chrome
/// trace form of a time series (per-window throughput, in-flight count,
/// channel utilization, …).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Track name shown by the viewer.
    pub name: String,
    /// Samples in increasing time order.
    pub samples: Vec<CounterSample>,
}

/// Restrict a name to the exporters' safe charset rather than escape.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || " _-.=".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn chrome_counter(out: &mut String, track: &str, s: &CounterSample, pid: u32) {
    let ts = json_num(s.t as f64);
    let _ = write!(
        out,
        r#"{{"name":"{track}","cat":"counter","ph":"C","ts":{ts},"pid":{pid},"args":{{"#
    );
    for (i, (k, v)) in s.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Counter values must stay numeric JSON; non-finite inputs are
        // clamped to 0 rather than emitting NaN/inf tokens.
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(out, r#""{}":{}"#, sanitize(k), json_num(v));
    }
    out.push_str("}}");
}

/// Render the event stream in Chrome `trace_event` JSON-object format,
/// with `counters` as counter tracks (`"ph":"C"` samples) after the
/// lifecycle events. `label` becomes the process name shown by the
/// viewer. Worms still in flight at the end of the run appear as unclosed
/// `B` slices, which both `about:tracing` and Perfetto tolerate.
pub fn events_to_chrome_trace(
    events: &[WormEvent],
    counters: &[CounterTrack],
    label: &str,
) -> String {
    let pid = 1u32;
    let n_samples: usize = counters.iter().map(|c| c.samples.len()).sum();
    let mut out = String::with_capacity(events.len() * 96 + n_samples * 96 + 256);
    out.push_str("{\"traceEvents\": [\n");
    // Process-name metadata record. Labels come from experiment names —
    // restrict to a safe charset rather than escape.
    let safe = sanitize(label);
    let _ = write!(
        out,
        r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{safe}"}}}}"#
    );
    for ev in events {
        out.push_str(",\n");
        chrome_event(&mut out, ev, pid);
    }
    for track in counters {
        let name = sanitize(&track.name);
        for s in &track.samples {
            out.push_str(",\n");
            chrome_counter(&mut out, &name, s, pid);
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Deepest nesting [`Json::parse`] accepts: values sit at depth 0 (the
/// document) through 64. Deeper input is rejected with an error rather
/// than recursing until the stack overflows.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value — the workspace's one JSON reader, used to check
/// the exporters' output and to read benchmark records.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; always finite (out-of-range literals are rejected).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses exactly one JSON value surrounded by optional whitespace,
    /// under the strict RFC 8259 grammar: no trailing commas, no leading
    /// zeros, no raw control characters in strings, `\uXXXX` escapes
    /// decoded (a lone surrogate becomes U+FFFD). Nesting deeper than 64
    /// levels is an error.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return p.fail("trailing content");
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, when this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Recursive-descent state: the input bytes and the read position.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.fail("nesting deeper than 64 levels");
        }
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => self.fail("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            self.fail(&format!("expected {lit:?}"))
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or ']'");
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.i += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return self.fail("expected a string key");
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return self.fail("expected ':'");
            }
            fields.push((key, self.value(depth + 1)?));
            self.ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or '}'");
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..4 {
            let Some(d) = self.peek().and_then(|c| char::from(c).to_digit(16)) else {
                return self.fail("expected four hex digits");
            };
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    /// A `\u` escape's code point, after its `\u`: a surrogate pair
    /// joins into one char; an unpaired surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) && self.b[self.i..].starts_with(b"\\u") {
            let resume = self.i;
            self.i += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            self.i = resume; // not a pair: the next escape stands alone
        }
        Ok(char::from_u32(hi).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // '"'
        let mut out = Vec::new();
        loop {
            let Some(c) = self.peek() else {
                return self.fail("unterminated string");
            };
            if c < 0x20 {
                return self.fail("raw control character in string");
            }
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).or_else(|_| self.fail("invalid UTF-8")),
                b'\\' => {
                    let escape = self.peek();
                    self.i += 1;
                    let ch = match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return self.fail("invalid escape"),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(c),
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.eat(b'-');
        let int_start = self.i;
        let int_len = self.digits();
        if int_len == 0 || (int_len > 1 && self.b[int_start] == b'0') {
            return self.fail("malformed number");
        }
        if self.eat(b'.') && self.digits() == 0 {
            return self.fail("malformed fraction");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.fail("malformed exponent");
            }
        }
        // The slice is ASCII by construction, so from_utf8 cannot fail.
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }
}

/// JSON well-formedness check, used by the test suite to validate the
/// exporters: `true` iff `s` is exactly one valid JSON value surrounded by
/// whitespace ([`Json::parse`] succeeds).
pub fn json_is_well_formed(s: &str) -> bool {
    Json::parse(s).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::StallCause;

    fn sample_events() -> Vec<WormEvent> {
        vec![
            WormEvent::Inject {
                t: 1,
                worm: 0,
                src: 2,
                dest: 5,
            },
            WormEvent::RouteChosen {
                t: 2,
                worm: 0,
                station: 3,
            },
            WormEvent::Stall {
                t: 2,
                worm: 0,
                cause: StallCause::NoFreeLane,
            },
            WormEvent::LaneGrant {
                t: 3,
                worm: 0,
                channel: 7,
                lane: 1,
            },
            WormEvent::Drain { t: 9, worm: 0 },
            WormEvent::Deliver {
                t: 12,
                worm: 0,
                latency: 12,
            },
        ]
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let jsonl = events_to_jsonl(&sample_events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            assert!(json_is_well_formed(line), "bad JSONL line: {line}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_slices() {
        let trace = events_to_chrome_trace(&sample_events(), &[], "unit test");
        assert!(json_is_well_formed(&trace), "bad chrome trace: {trace}");
        assert_eq!(trace.matches(r#""ph":"B""#).count(), 1);
        assert_eq!(trace.matches(r#""ph":"E""#).count(), 1);
        assert_eq!(trace.matches(r#""ph":"i""#).count(), 4);
    }

    #[test]
    fn chrome_label_is_sanitized() {
        let trace = events_to_chrome_trace(&[], &[], "we\"ird\\label\n");
        assert!(json_is_well_formed(&trace));
        assert!(trace.contains("we_ird_label_"));
    }

    #[test]
    fn chrome_counter_tracks_are_valid_json() {
        let counters = vec![CounterTrack {
            name: "throughput (worms/cycle)".to_string(),
            samples: vec![
                CounterSample {
                    t: 0,
                    values: vec![("delivered".into(), 0.25), ("in_flight".into(), 3.0)],
                },
                CounterSample {
                    t: 256,
                    values: vec![("delivered".into(), 0.5), ("in_flight".into(), 1.0)],
                },
            ],
        }];
        let trace = events_to_chrome_trace(&sample_events(), &counters, "timeline");
        assert!(json_is_well_formed(&trace), "bad counter trace: {trace}");
        assert_eq!(trace.matches(r#""ph":"C""#).count(), 2);
        assert!(trace.contains(r#""cat":"counter""#));
        assert!(trace.contains(r#""delivered":0.25"#));
        // Lifecycle events are still present alongside the counters.
        assert_eq!(trace.matches(r#""ph":"B""#).count(), 1);
    }

    #[test]
    fn chrome_counter_values_stay_numeric_json() {
        // Non-finite values and unsafe names must not corrupt the JSON.
        let counters = vec![CounterTrack {
            name: "bad\"name".to_string(),
            samples: vec![CounterSample {
                t: 1,
                values: vec![("na\"n".into(), f64::NAN), ("inf".into(), f64::INFINITY)],
            }],
        }];
        let trace = events_to_chrome_trace(&[], &counters, "t");
        assert!(json_is_well_formed(&trace), "bad trace: {trace}");
        assert!(trace.contains(r#""bad_name""#));
        assert!(!trace.contains("NaN"));
        assert!(!trace.contains("inf\":i"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            r#"{"a": [1, 2.5, -3e2, true, false, null, "s\n"]}"#,
            "  42 ",
            r#""é""#,
        ] {
            assert!(json_is_well_formed(good), "should accept: {good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            r#"{"a":}"#,
            "{} {}",
            r#""unterminated"#,
        ] {
            assert!(!json_is_well_formed(bad), "should reject: {bad}");
        }
    }

    #[test]
    fn parser_builds_values_and_decodes_escapes() {
        let doc = Json::parse(r#" {"a": [1, -2.5e1, true, null], "s": "x\"\né😀"} "#).unwrap();
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x\"\né😀"));
        assert_eq!(doc.get("missing"), None);
        // An unpaired surrogate decodes to U+FFFD; the escape after a
        // high surrogate that is not a low one is read on its own.
        let lone = Json::parse(r#""\ud800A""#).unwrap();
        assert_eq!(lone.as_str(), Some("\u{fffd}A"));
        // Raw control characters, bad escapes and out-of-range numbers
        // are errors.
        for bad in ["\"a\tb\"", r#""\x""#, r#""\u12g4""#, "1e400", "-", "[1 2]"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_64_levels() {
        let nest = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        // The document is depth 0, so 65 brackets hold values at depths 0-64.
        assert!(Json::parse(&nest(65)).is_ok());
        assert!(Json::parse(&nest(66)).is_err());
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
        assert!(!json_is_well_formed(&"[".repeat(1_000_000)));
    }

    #[test]
    fn random_input_never_panics() {
        // Inline xorshift64: JSON-ish tokens mixed with arbitrary bytes, so
        // the parser is driven deep into every branch, not just rejected
        // at the first byte.
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "1", "-0.5e+3", "true", "nul",
            " ", "\"k\":",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted = 0;
        for _ in 0..4_000 {
            let mut bytes = Vec::new();
            for _ in 0..next() % 40 {
                let r = next();
                if r % 4 == 0 {
                    bytes.push((r >> 8) as u8);
                } else {
                    bytes.extend_from_slice(TOKENS[(r >> 8) as usize % TOKENS.len()].as_bytes());
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(v) = Json::parse(&text) {
                accepted += 1;
                assert!(json_is_well_formed(&text), "{text:?} parsed to {v:?}");
            }
        }
        assert!(accepted > 0, "the generator never produced valid JSON");
    }
}
