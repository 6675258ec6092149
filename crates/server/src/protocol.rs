//! The `ramp-serve/1` wire protocol: one request line in, one response
//! line out.
//!
//! Requests are read with the token cursor of [`sim_common::textfmt`]:
//! whitespace-separated tokens, strict validation — unknown keys,
//! duplicate keys, and wrong arity are rejected, never ignored — and every
//! error names the 1-based token position it was detected at, so
//! `err 3: unknown key \`frq\`` points at the third token of the offending
//! request.
//!
//! ```text
//! C: eval gzip freq=4000000000 vdd=1.0
//! S: ok eval app=gzip window=128 alus=6 fpus=4 freq_ghz=4 vdd=1 ipc=...
//! C: eval gzip frq=1
//! S: err 3: unknown key `frq` (allowed: freq, vdd, window, alus, fpus, scenario)
//! ```
//!
//! Responses come in exactly three shapes, distinguished by their first
//! token: `ok <kind> [key=value...]` for success, `busy <key=value...>`
//! when admission control sheds the request (the queue is full — retry
//! later), and `err <pos>: <message>` for malformed or failing requests.
//! The server greets every connection with [`GREETING`] so clients can
//! reject a version mismatch before sending anything.
//!
//! Both ends send every line, request or reply, through [`write_line`]:
//! the line and its `\n` leave in one `write_all`, so on a `TCP_NODELAY`
//! socket a line is one segment and its reader wakes once.
//!
//! Floats are serialized with Rust's shortest-round-trip `Display`
//! formatting (the same convention as the `.scn` format and the JSONL
//! trace sink), so parsing a response recovers bit-identical values —
//! which is what makes the socket-vs-direct parity tests exact.

use std::io::{self, Write};

use sim_common::textfmt::{Field, KeyValues, TokenError, Tokens};
use sim_common::SimError;

pub use sim_common::textfmt::Spanned;

/// Protocol name and revision. The first response line of every
/// connection is [`GREETING`]; bump the revision when the grammar
/// changes incompatibly.
pub const PROTOCOL_VERSION: &str = "ramp-serve/1";

/// The greeting the server writes on accept: `ok ramp-serve/1`.
pub const GREETING: &str = "ok ramp-serve/1";

/// Hard cap on one request line (bytes). A connection that exceeds it
/// mid-line is answered with an error and closed — the stream cannot be
/// resynchronized.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Sends `line` as one protocol line: frames `line` and its `\n` in
/// `buf` (a buffer its connection keeps and reuses) and writes the frame
/// with one `write_all`, so a `TCP_NODELAY` socket sends it as one
/// segment and the reader wakes once for it.
///
/// # Errors
///
/// Returns the stream's write error.
pub fn write_line(out: &mut impl Write, buf: &mut Vec<u8>, line: &str) -> io::Result<()> {
    debug_assert!(!line.contains('\n'), "a protocol line holds no newline");
    buf.clear();
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(buf)?;
    out.flush()
}

/// Hard cap on the line count of an inline-scenario upload.
pub const MAX_SCENARIO_LINES: usize = 4096;

/// Hard cap on `sleep ms=` (the load-testing primitive must not be able
/// to park a worker for long).
pub const MAX_SLEEP_MS: u64 = 10_000;

/// Fastest `watch` frame interval a client may request.
pub const MIN_WATCH_INTERVAL_MS: u64 = 10;

/// Slowest `watch` frame interval a client may request.
pub const MAX_WATCH_INTERVAL_MS: u64 = 60_000;

/// The `watch` frame interval when the client names none.
pub const DEFAULT_WATCH_INTERVAL_MS: u64 = 1_000;

/// The versioned kind token of a `watch` telemetry frame:
/// `ok watch-frame/1 seq=...`. Bump when the frame schema changes
/// incompatibly.
pub const WATCH_FRAME_KIND: &str = "watch-frame/1";

/// A protocol-level error: what went wrong and the 1-based position of
/// the request token it was detected at (1 = the verb). Its wire form is
/// [`TokenError::to_line`].
pub type ProtoError = TokenError;

/// Operating-point overrides shared by `eval` and `fit`: absent keys
/// default to the target scenario's base processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpPoint {
    /// Clock frequency in Hz.
    pub freq_hz: Option<Spanned<f64>>,
    /// Supply voltage in volts.
    pub vdd: Option<Spanned<f64>>,
    /// Instruction-window size.
    pub window: Option<Spanned<u32>>,
    /// Integer ALU count.
    pub alus: Option<Spanned<u32>>,
    /// FPU count.
    pub fpus: Option<Spanned<u32>>,
}

/// Qualification overrides shared by `fit` and `sweep`: absent keys
/// default to the target scenario's qualification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualOverride {
    /// Qualification temperature in kelvin.
    pub tqual_k: Option<Spanned<f64>>,
    /// Qualification activity factor.
    pub alpha: Option<Spanned<f64>>,
    /// Chip-wide FIT budget.
    pub target_fit: Option<Spanned<f64>>,
}

/// `eval <app> [freq=<hz>] [vdd=<v>] [window=] [alus=] [fpus=] [scenario=<name>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Workload name (resolved against the target scenario server-side).
    pub app: Spanned<String>,
    /// Uploaded scenario to evaluate against (default: the server's own).
    pub scenario: Option<Spanned<String>>,
    /// Operating-point overrides.
    pub point: OpPoint,
}

/// `fit <app> [...eval keys...] [tqual=<K>] [alpha=<a>] [target=<fit>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FitRequest {
    /// Workload name.
    pub app: Spanned<String>,
    /// Uploaded scenario to evaluate against.
    pub scenario: Option<Spanned<String>>,
    /// Operating-point overrides.
    pub point: OpPoint,
    /// Qualification overrides.
    pub qual: QualOverride,
}

/// `sweep <app> [strategy=<arch|dvs|archdvs>] [step=<ghz>] [tqual=] [alpha=] [target=] [scenario=]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Workload name.
    pub app: Spanned<String>,
    /// Uploaded scenario to evaluate against.
    pub scenario: Option<Spanned<String>>,
    /// Adaptation strategy (default `archdvs`).
    pub strategy: Option<Spanned<String>>,
    /// DVS grid step override in GHz.
    pub step_ghz: Option<Spanned<f64>>,
    /// Qualification overrides.
    pub qual: QualOverride,
}

/// `fleet <app> [...eval keys...] [tqual=] [alpha=] [target=] [dies=] [seed=] [shape=]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// Workload name.
    pub app: Spanned<String>,
    /// Uploaded scenario to evaluate against.
    pub scenario: Option<Spanned<String>>,
    /// Operating-point overrides.
    pub point: OpPoint,
    /// Qualification overrides.
    pub qual: QualOverride,
    /// Die-count override (default: the target scenario's `fleet.dies`).
    pub dies: Option<Spanned<u64>>,
    /// Fleet seed override.
    pub seed: Option<Spanned<u64>>,
    /// Weibull wear-out shape override.
    pub shape: Option<Spanned<f64>>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `ping` — liveness check, answered inline.
    Ping,
    /// `stats` — server counters, answered inline.
    Stats,
    /// `shutdown` — drain in-flight work, then stop the server.
    Shutdown,
    /// `sleep ms=<n>` — park a worker (load-testing primitive).
    Sleep {
        /// Milliseconds to sleep, ≤ [`MAX_SLEEP_MS`].
        ms: u64,
    },
    /// `scenario <name> <nlines>` — the next `nlines` raw lines are an
    /// inline `.scn` upload, parsed with the `scenario` crate and
    /// installed under `name` for later `scenario=<name>` requests.
    Scenario {
        /// Registry name the upload installs under.
        name: Spanned<String>,
        /// Number of raw payload lines that follow.
        lines: usize,
    },
    /// `watch [interval_ms=<n>] [frames=<n>]` — stream telemetry frames
    /// until `frames` have been sent (`0` = until the client disconnects
    /// or the server shuts down). Answered with a `ok watch-frame/1`
    /// line per interval and a final `ok watch-end`.
    Watch {
        /// Frame interval, clamped to
        /// [`MIN_WATCH_INTERVAL_MS`]..=[`MAX_WATCH_INTERVAL_MS`].
        interval_ms: u64,
        /// Frame budget; `0` streams unbounded.
        frames: u64,
    },
    /// Evaluate one operating point.
    Eval(EvalRequest),
    /// Evaluate and score against a qualification.
    Fit(FitRequest),
    /// Oracular DRM search over a strategy's candidate grid.
    Sweep(SweepRequest),
    /// Population Monte Carlo over virtual dies at one operating point.
    Fleet(FleetRequest),
}

/// The request verbs, for error messages.
const VERBS: &str = "ping, stats, watch, shutdown, sleep, scenario, eval, fit, sweep, fleet";

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ProtoError`] with the 1-based token position for any
/// violation of the grammar: unknown verbs or keys, duplicate keys,
/// missing operands, unparsable values, trailing tokens.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut t = Tokens::new(line);
    let verb = t
        .next("request")
        .map_err(|_| ProtoError::new(1, "empty request"))?;
    let request = match verb.value {
        "ping" | "stats" | "shutdown" => {
            t.end()?;
            match verb.value {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                _ => Request::Shutdown,
            }
        }
        "watch" => {
            let keys = t.key_values(&["interval_ms", "frames"])?;
            let interval = keys.get::<u64>("interval_ms")?;
            let range = MIN_WATCH_INTERVAL_MS..=MAX_WATCH_INTERVAL_MS;
            if let Some(i) = interval.as_ref().filter(|i| !range.contains(&i.value)) {
                let msg = format!("interval_ms must be in {range:?}");
                return Err(ProtoError::new(i.pos, msg));
            }
            Request::Watch {
                interval_ms: interval.map_or(DEFAULT_WATCH_INTERVAL_MS, |i| i.value),
                frames: keys.get("frames")?.map_or(0, |f| f.value),
            }
        }
        "sleep" => {
            let ms = t.key_values(&["ms"])?.require::<u64>("ms", 1)?;
            if ms.value > MAX_SLEEP_MS {
                return Err(ProtoError::new(
                    ms.pos,
                    format!("sleep ms must be at most {MAX_SLEEP_MS}"),
                ));
            }
            Request::Sleep { ms: ms.value }
        }
        "scenario" => {
            let name = t.operand("scenario name")?;
            let count = t.operand("payload line count")?;
            t.end()?;
            let lines: usize = count.value.parse().map_err(|_| {
                ProtoError::new(
                    count.pos,
                    format!("expected a line count, got `{}`", count.value),
                )
            })?;
            if lines == 0 || lines > MAX_SCENARIO_LINES {
                return Err(ProtoError::new(
                    count.pos,
                    format!("line count must be in 1..={MAX_SCENARIO_LINES}"),
                ));
            }
            Request::Scenario { name, lines }
        }
        "eval" => {
            let app = t.operand("application name")?;
            let keys = t.key_values(&["freq", "vdd", "window", "alus", "fpus", "scenario"])?;
            Request::Eval(EvalRequest {
                app,
                scenario: keys.get("scenario")?,
                point: parse_point(&keys)?,
            })
        }
        "fit" => {
            let app = t.operand("application name")?;
            let keys = t.key_values(&[
                "freq", "vdd", "window", "alus", "fpus", "scenario", "tqual", "alpha", "target",
            ])?;
            Request::Fit(FitRequest {
                app,
                scenario: keys.get("scenario")?,
                point: parse_point(&keys)?,
                qual: parse_qual(&keys)?,
            })
        }
        "sweep" => {
            let app = t.operand("application name")?;
            let keys =
                t.key_values(&["strategy", "step", "scenario", "tqual", "alpha", "target"])?;
            Request::Sweep(SweepRequest {
                app,
                scenario: keys.get("scenario")?,
                strategy: keys.get("strategy")?,
                step_ghz: positive(&keys, "step", "a positive frequency step in GHz")?,
                qual: parse_qual(&keys)?,
            })
        }
        "fleet" => {
            let app = t.operand("application name")?;
            let keys = t.key_values(&[
                "freq", "vdd", "window", "alus", "fpus", "scenario", "tqual", "alpha", "target",
                "dies", "seed", "shape",
            ])?;
            let dies = positive_dies(&keys)?;
            Request::Fleet(FleetRequest {
                app,
                scenario: keys.get("scenario")?,
                point: parse_point(&keys)?,
                qual: parse_qual(&keys)?,
                dies,
                seed: keys.get("seed")?,
                shape: finite(&keys, "shape")?,
            })
        }
        other => {
            return Err(ProtoError::new(
                1,
                format!("unknown request `{other}` (known: {VERBS})"),
            ))
        }
    };
    Ok(request)
}

/// A float key that must also be finite (the wire never carries NaN or
/// infinities).
fn finite(keys: &KeyValues<'_>, key: &str) -> Result<Option<Spanned<f64>>, ProtoError> {
    match keys.get::<f64>(key)? {
        Some(v) if !v.value.is_finite() => Err(ProtoError::new(
            v.pos,
            format!("`{key}` must be a finite number, got `{}`", v.value),
        )),
        v => Ok(v),
    }
}

fn positive_dies(keys: &KeyValues<'_>) -> Result<Option<Spanned<u64>>, ProtoError> {
    match keys.get::<u64>("dies")? {
        Some(d) if d.value == 0 => Err(ProtoError::new(d.pos, "dies must be positive")),
        d => Ok(d),
    }
}

/// A finite float key that must also be positive: `what` it must be.
fn positive(
    keys: &KeyValues<'_>,
    key: &str,
    what: &str,
) -> Result<Option<Spanned<f64>>, ProtoError> {
    match finite(keys, key)? {
        Some(v) if v.value <= 0.0 => Err(ProtoError::new(v.pos, format!("{key} must be {what}"))),
        v => Ok(v),
    }
}

fn parse_point(keys: &KeyValues<'_>) -> Result<OpPoint, ProtoError> {
    Ok(OpPoint {
        freq_hz: positive(keys, "freq", "a positive Hz value")?,
        vdd: positive(keys, "vdd", "a positive voltage")?,
        window: keys.get("window")?,
        alus: keys.get("alus")?,
        fpus: keys.get("fpus")?,
    })
}

fn parse_qual(keys: &KeyValues<'_>) -> Result<QualOverride, ProtoError> {
    Ok(QualOverride {
        tqual_k: finite(keys, "tqual")?,
        alpha: finite(keys, "alpha")?,
        target_fit: finite(keys, "target")?,
    })
}

/// Builds one `ok <kind> key=value...` response line. Floats use
/// shortest-round-trip formatting, so clients recover exact bits.
#[derive(Debug)]
pub struct ResponseLine {
    buf: String,
}

impl ResponseLine {
    /// Starts an `ok <kind>` line.
    #[must_use]
    pub fn ok(kind: &str) -> ResponseLine {
        ResponseLine {
            buf: format!("ok {kind}"),
        }
    }

    /// Appends ` key=value`. Values must be single tokens — the line
    /// format has no quoting.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        debug_assert!(
            !value.contains(char::is_whitespace) && !value.is_empty(),
            "response value `{value}` is not a single token"
        );
        self.buf.push(' ');
        self.buf.push_str(key);
        self.buf.push('=');
        self.buf.push_str(value);
        self
    }

    /// Appends a float field (shortest-round-trip formatting).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.str(key, &value.to_string())
    }

    /// Appends an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.str(key, &value.to_string())
    }

    /// Appends a boolean field (`true`/`false`).
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.str(key, if value { "true" } else { "false" })
    }

    /// The finished line (no trailing newline).
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// The `busy` shed response, carrying the queue bound that was hit.
#[must_use]
pub fn busy_line(queue_depth: usize) -> String {
    format!("busy queue_depth={queue_depth}")
}

/// The first token of a response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `ok ...` — the request succeeded.
    Ok,
    /// `busy ...` — admission control shed the request; retry later.
    Busy,
    /// `err <pos>: ...` — the request was malformed or failed.
    Err,
}

/// A parsed response line (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Outcome class.
    pub status: Status,
    /// The response kind (`eval`, `fit`, ... for `ok` lines; empty for
    /// `busy`/`err`).
    pub kind: String,
    /// `key=value` fields, in wire order.
    pub fields: Vec<(String, String)>,
    /// The raw line, for diagnostics and `err` messages.
    pub raw: String,
}

impl Reply {
    /// Parses a response line.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the line matches none of
    /// the three response shapes.
    pub fn parse(line: &str) -> Result<Reply, SimError> {
        let raw = line.to_owned();
        let mut tokens = line.split_whitespace();
        let status = match tokens.next() {
            Some("ok") => Status::Ok,
            Some("busy") => Status::Busy,
            Some("err") => Status::Err,
            _ => {
                return Err(SimError::invalid_config(format!(
                    "malformed response line `{line}`"
                )))
            }
        };
        let mut kind = String::new();
        let mut fields = Vec::new();
        // An `err` line carries free text, not fields.
        for token in tokens.filter(|_| status != Status::Err) {
            match token.split_once('=') {
                Some((k, v)) => fields.push((k.to_owned(), v.to_owned())),
                None if kind.is_empty() && fields.is_empty() => kind = token.to_owned(),
                None => {
                    return Err(SimError::invalid_config(format!(
                        "malformed response token `{token}` in `{line}`"
                    )))
                }
            }
        }
        Ok(Reply {
            status,
            kind,
            fields,
            raw,
        })
    }

    /// True for `ok` responses.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == Status::Ok
    }

    /// A field's raw value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A required field, decoded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when absent or unparsable.
    pub fn field<T: Field>(&self, key: &str) -> Result<T, SimError> {
        let value = self.get(key).ok_or_else(|| {
            SimError::invalid_config(format!("response missing `{key}`: {}", self.raw))
        })?;
        value.parse().map_err(|_| {
            SimError::invalid_config(format!(
                "response field `{key}` must be {}, got `{value}`",
                T::WHAT
            ))
        })
    }

    /// A required float field (see [`Reply::field`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when absent or unparsable.
    pub fn f64(&self, key: &str) -> Result<f64, SimError> {
        self.field(key)
    }

    /// A required integer field (see [`Reply::field`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when absent or unparsable.
    pub fn u64(&self, key: &str) -> Result<u64, SimError> {
        self.field(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records each `write` call as one chunk.
    #[derive(Default)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for Chunks {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_line_in_one_write() {
        let mut out = Chunks::default();
        let mut buf = Vec::new();
        write_line(&mut out, &mut buf, "eval gzip").unwrap();
        write_line(&mut out, &mut buf, "ok pong").unwrap();
        assert_eq!(out.0, [b"eval gzip\n".to_vec(), b"ok pong\n".to_vec()]);
    }

    #[test]
    fn parses_the_issue_example() {
        let r = parse_request("eval gzip freq=4000000000 vdd=1.0").unwrap();
        let Request::Eval(e) = r else {
            panic!("not an eval")
        };
        assert_eq!(e.app.value, "gzip");
        assert_eq!(e.app.pos, 2);
        assert_eq!(e.point.freq_hz.as_ref().unwrap().value, 4e9);
        assert_eq!(e.point.freq_hz.as_ref().unwrap().pos, 3);
        assert_eq!(e.point.vdd.as_ref().unwrap().value, 1.0);
        assert!(e.scenario.is_none());
    }

    #[test]
    fn unknown_key_errors_carry_the_token_position() {
        let e = parse_request("eval gzip frq=1").unwrap_err();
        assert_eq!(e.pos, 3);
        assert!(e.message.contains("unknown key `frq`"), "{e}");
        assert!(e.to_line().starts_with("err 3: "), "{}", e.to_line());
    }

    #[test]
    fn duplicate_and_bare_tokens_are_rejected() {
        let e = parse_request("eval gzip freq=1e9 freq=2e9").unwrap_err();
        assert_eq!(e.pos, 4);
        assert!(e.message.contains("given twice"));
        let e = parse_request("eval gzip 4ghz").unwrap_err();
        assert_eq!(e.pos, 3);
        assert!(e.message.contains("expected key=value"));
    }

    #[test]
    fn arity_violations_are_positioned() {
        assert_eq!(parse_request("").unwrap_err().pos, 1);
        assert_eq!(parse_request("eval").unwrap_err().pos, 2);
        assert_eq!(parse_request("ping now").unwrap_err().pos, 2);
        assert_eq!(parse_request("scenario hot").unwrap_err().pos, 3);
        let e = parse_request("bogus").unwrap_err();
        assert_eq!(e.pos, 1);
        assert!(e.message.contains("unknown request"));
        // The retired shard-only verbs are unknown like any other.
        for line in ["unit sweep gzip index=0", "merge", "shard index=0 shards=1"] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.pos, 1, "{line}");
            assert!(e.message.contains(&format!("(known: {VERBS})")), "{e}");
        }
    }

    #[test]
    fn value_validation() {
        assert!(parse_request("eval gzip freq=-1").is_err());
        assert!(parse_request("eval gzip vdd=nan").is_err());
        assert!(parse_request("sweep gzip step=0").is_err());
        assert!(parse_request("sleep ms=999999").is_err());
        assert!(parse_request("scenario x 0").is_err());
        assert!(parse_request("scenario x 99999").is_err());
        assert!(parse_request("sleep ms=5").is_ok());
    }

    #[test]
    fn fit_and_sweep_accept_qualification_overrides() {
        let Request::Fit(f) = parse_request("fit gzip tqual=394 alpha=0.48 target=4000").unwrap()
        else {
            panic!("not a fit")
        };
        assert_eq!(f.qual.tqual_k.unwrap().value, 394.0);
        let Request::Sweep(s) = parse_request("sweep gzip strategy=dvs step=0.5").unwrap() else {
            panic!("not a sweep")
        };
        assert_eq!(s.strategy.unwrap().value, "dvs");
        assert_eq!(s.step_ghz.unwrap().value, 0.5);
    }

    #[test]
    fn fleet_requests_parse_with_overrides() {
        let Request::Fleet(f) =
            parse_request("fleet gzip dies=50000 seed=7 shape=2.5 tqual=370 freq=3.5e9").unwrap()
        else {
            panic!("not a fleet")
        };
        assert_eq!(f.app.value, "gzip");
        assert_eq!(f.dies.unwrap().value, 50_000);
        assert_eq!(f.seed.unwrap().value, 7);
        assert_eq!(f.shape.unwrap().value, 2.5);
        assert_eq!(f.qual.tqual_k.unwrap().value, 370.0);
        assert_eq!(f.point.freq_hz.unwrap().value, 3.5e9);

        let Request::Fleet(bare) = parse_request("fleet twolf").unwrap() else {
            panic!("not a fleet")
        };
        assert!(bare.dies.is_none() && bare.seed.is_none() && bare.shape.is_none());

        let e = parse_request("fleet gzip dies=0").unwrap_err();
        assert_eq!(e.pos, 3);
        assert!(e.message.contains("dies must be positive"), "{e}");
        assert!(parse_request("fleet gzip dies=many").is_err());
        assert!(parse_request("fleet gzip strategy=dvs").is_err());
    }

    #[test]
    fn watch_requests_parse_with_bounds() {
        let Request::Watch {
            interval_ms,
            frames,
        } = parse_request("watch").unwrap()
        else {
            panic!("not a watch")
        };
        assert_eq!(interval_ms, DEFAULT_WATCH_INTERVAL_MS);
        assert_eq!(frames, 0, "default streams unbounded");

        let Request::Watch {
            interval_ms,
            frames,
        } = parse_request("watch interval_ms=50 frames=10").unwrap()
        else {
            panic!("not a watch")
        };
        assert_eq!(interval_ms, 50);
        assert_eq!(frames, 10);

        let e = parse_request("watch interval_ms=5").unwrap_err();
        assert_eq!(e.pos, 2);
        assert!(e.message.contains("interval_ms"), "{e}");
        assert!(parse_request("watch interval_ms=99999999").is_err());
        assert!(parse_request("watch now").is_err());
        assert!(parse_request("watch frames=ten").is_err());
    }

    #[test]
    fn response_lines_round_trip_floats_bit_exactly() {
        let value = 0.1_f64 + 0.2_f64; // not representable as a short decimal
        let mut line = ResponseLine::ok("eval");
        line.f64("ipc", value).u64("n", 7).bool("feasible", true);
        let reply = Reply::parse(&line.finish()).unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(reply.kind, "eval");
        assert_eq!(reply.f64("ipc").unwrap().to_bits(), value.to_bits());
        assert_eq!(reply.u64("n").unwrap(), 7);
        assert_eq!(reply.get("feasible"), Some("true"));
    }

    #[test]
    fn busy_and_err_replies_parse() {
        let b = Reply::parse(&busy_line(64)).unwrap();
        assert_eq!(b.status, Status::Busy);
        assert_eq!(b.u64("queue_depth").unwrap(), 64);
        let e = Reply::parse("err 3: unknown key `frq`").unwrap();
        assert_eq!(e.status, Status::Err);
        assert!(e.raw.contains("unknown key"));
        assert!(Reply::parse("??? what").is_err());
    }

    #[test]
    fn scenario_upload_header_parses() {
        let Request::Scenario { name, lines } = parse_request("scenario hot 42").unwrap() else {
            panic!("not a scenario upload")
        };
        assert_eq!(name.value, "hot");
        assert_eq!(lines, 42);
    }

    /// Seeded corruptions of one canonical line per verb (and of each
    /// response shape) parse or fail with an in-range token position;
    /// none panics.
    #[test]
    fn corrupted_lines_never_panic() {
        let requests = [
            "ping",
            "stats",
            "watch interval_ms=50 frames=10",
            "sleep ms=5",
            "scenario hot 42",
            "eval gzip freq=4000000000 vdd=1 window=128 alus=6 fpus=4 scenario=hot",
            "fit gzip freq=3.5e9 tqual=394 alpha=0.48 target=4000",
            "sweep gzip strategy=dvs step=0.5 tqual=370",
            "fleet gzip dies=50000 seed=7 shape=2.5 freq=3.5e9",
        ];
        for (i, line) in requests.iter().enumerate() {
            for seed in 0..40 {
                let bad = sim_common::textfmt::corrupt(line, (i as u64) << 32 | seed);
                if let Err(e) = parse_request(&bad) {
                    let tokens = bad.split_whitespace().count();
                    assert!(e.pos >= 1 && e.pos <= tokens + 1, "`{bad}`: {e}");
                }
            }
        }
        let replies = [
            "ok eval app=gzip ipc=1.25 bips=5 feasible=true",
            "busy queue_depth=64",
            "err 3: unknown key `frq`",
        ];
        for (i, line) in replies.iter().enumerate() {
            for seed in 0..20 {
                let bad = sim_common::textfmt::corrupt(line, (i as u64) << 32 | seed);
                if let Ok(reply) = Reply::parse(&bad) {
                    let _ = (reply.f64("ipc"), reply.u64("queue_depth"));
                }
            }
        }
    }
}
