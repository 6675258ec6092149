//! The one line-format core behind every text format of the stack: `.scn`
//! scenarios, workload profiles, slice checkpoints, evaluation-store
//! records and the `ramp-serve/1` wire protocol.
//!
//! Two grammars share it:
//!
//! * **Line documents** (scenarios, profiles, checkpoints): one
//!   `key value...` entry per line; `#` starts a comment and blank lines
//!   are skipped. [`lines`] yields the entries as [`Line`]s and a [`Doc`]
//!   files them by key, rejecting unknown keys and singleton keys given
//!   twice. Every error names the 1-based line: `line N: ...`.
//! * **Token records** (store records, wire requests): whitespace tokens
//!   on one line, read with a [`Tokens`] cursor as ordered `key=value`
//!   header tokens, positional values, bare operands, or an unordered
//!   [`KeyValues`] tail. Every error names the 1-based token:
//!   `token M: ...`.
//!
//! Both decode fields through one generic [`Field`] parser, and every
//! accessor returns an error rather than panicking on hostile input; a
//! declared count is only ever compared with the entries present, never
//! allocated from. The integrity helpers are shared too: the [`fnv1a64`]
//! hash, the checksummed record line ([`seal`]/[`unseal`], a trailing
//! ` sum=<16 hex>` token) and the [`Hex64`] token that carries an `f64`
//! as its exact bit pattern. [`corrupt`] is the seeded corruption
//! generator every format's robustness tests draw from.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

use crate::{SimError, Xoshiro256pp};

/// A type a text token decodes into, named the way error messages
/// describe a well-formed token.
pub trait Field: FromStr {
    /// What a well-formed token is, e.g. "a number".
    const WHAT: &'static str;
}

macro_rules! fields {
    ($($t:ty => $what:expr),* $(,)?) => {
        $(impl Field for $t { const WHAT: &'static str = $what; })*
    };
}

fields! {
    f64 => "a number",
    u64 => "a non-negative integer",
    u32 => "a non-negative integer",
    u16 => "a 16-bit non-negative integer",
    bool => "`true` or `false`",
    String => "a token",
    Hex64 => "16 hex digits",
}

fn bad_value<T: Field>(what: &str, token: &str) -> String {
    format!("`{what}` must be {}, got `{token}`", T::WHAT)
}

/// One `key value...` entry of a line document.
#[derive(Debug, Clone, PartialEq)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// The first token.
    pub key: &'a str,
    /// The tokens after the key (comment stripped).
    pub values: Vec<&'a str>,
}

/// The entries of a line document, skipping blank lines and `#` comments.
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let mut tokens = raw.split('#').next().unwrap_or("").split_whitespace();
        let key = tokens.next()?;
        Some(Line {
            no: i + 1,
            key,
            values: tokens.collect(),
        })
    })
}

impl Line<'_> {
    /// An error at this line.
    pub fn err(&self, msg: impl fmt::Display) -> SimError {
        SimError::invalid_config(format!("line {}: {msg}", self.no))
    }

    /// Fails unless the line carries exactly `n` values.
    pub fn expect_len(&self, n: usize) -> Result<&Self, SimError> {
        if self.values.len() == n {
            return Ok(self);
        }
        let s = if n == 1 { "" } else { "s" };
        let got = self.values.len();
        Err(self.err(format!("`{}` expects {n} value{s}, got {got}", self.key)))
    }

    /// Decodes `token` as a value of this line's key.
    pub fn parse<T: Field>(&self, token: &str) -> Result<T, SimError> {
        token
            .parse()
            .map_err(|_| self.err(bad_value::<T>(self.key, token)))
    }

    /// Decodes value `idx` (0-based), failing when it is absent.
    pub fn at<T: Field>(&self, idx: usize) -> Result<T, SimError> {
        match self.values.get(idx) {
            Some(token) => self.parse(token),
            None => Err(self.err(format!("`{}` lacks value {}", self.key, idx + 1))),
        }
    }

    /// Decodes the line's single value.
    pub fn one<T: Field>(&self) -> Result<T, SimError> {
        self.expect_len(1)?.at(0)
    }

    /// Decodes a count-prefixed list `key N v1 .. vN`.
    pub fn list<T: Field>(&self) -> Result<Vec<T>, SimError> {
        let Some((count, items)) = self.values.split_first() else {
            return Err(self.err(format!("`{}` expects a count", self.key)));
        };
        let n: u64 = self.parse(count)?;
        if items.len() as u64 != n {
            let got = items.len();
            return Err(self.err(format!("`{}` declares {n} values, got {got}", self.key)));
        }
        items.iter().map(|t| self.parse(t)).collect()
    }
}

/// The keys a line document accepts. Listing them up front lets a typo
/// fail as an unknown key at its own line instead of as a missing key.
#[derive(Debug)]
pub struct Schema {
    /// Keys that appear at most once.
    pub singles: &'static [&'static str],
    /// Keys that repeat, one line per entry.
    pub repeated: &'static [&'static str],
    /// How an absent singleton is reported: "missing <noun> `key`".
    pub missing: &'static str,
}

/// A scanned line document: its entries filed by key.
#[derive(Debug)]
pub struct Doc<'a> {
    schema: &'static Schema,
    singles: HashMap<&'a str, Line<'a>>,
    repeated: HashMap<&'a str, Vec<Line<'a>>>,
}

impl<'a> Doc<'a> {
    /// An empty document of `schema`, filled with [`Doc::insert`].
    pub fn new(schema: &'static Schema) -> Doc<'a> {
        Doc {
            schema,
            singles: HashMap::new(),
            repeated: HashMap::new(),
        }
    }

    /// Files every line of `text`.
    pub fn scan(text: &'a str, schema: &'static Schema) -> Result<Doc<'a>, SimError> {
        let mut doc = Doc::new(schema);
        for line in lines(text) {
            doc.insert(line)?;
        }
        Ok(doc)
    }

    /// Files one line, rejecting a key outside the schema and a singleton
    /// key given twice.
    pub fn insert(&mut self, line: Line<'a>) -> Result<(), SimError> {
        if self.schema.repeated.contains(&line.key) {
            self.repeated.entry(line.key).or_default().push(line);
        } else if !self.schema.singles.contains(&line.key) {
            return Err(line.err(format!("unknown key `{}`", line.key)));
        } else if let Some(first) = self.singles.get(line.key) {
            let msg = format!("duplicate key `{}` (first at line {})", line.key, first.no);
            return Err(line.err(msg));
        } else {
            self.singles.insert(line.key, line);
        }
        Ok(())
    }

    /// Removes a required singleton line.
    pub fn take(&mut self, key: &str) -> Result<Line<'a>, SimError> {
        self.singles.remove(key).ok_or_else(|| {
            SimError::invalid_config(format!("missing {} `{key}`", self.schema.missing))
        })
    }

    /// The single value of a required singleton key.
    pub fn value<T: Field>(&mut self, key: &str) -> Result<T, SimError> {
        self.take(key)?.one()
    }

    /// The single value of an optional singleton key.
    pub fn opt_value<T: Field>(&mut self, key: &str) -> Result<Option<T>, SimError> {
        self.singles.remove(key).map(|l| l.one()).transpose()
    }

    /// The count-prefixed list of a required singleton key.
    pub fn list<T: Field>(&mut self, key: &str) -> Result<Vec<T>, SimError> {
        self.take(key)?.list()
    }

    /// Removes every line of a repeated key, in file order.
    pub fn repeated(&mut self, key: &str) -> Vec<Line<'a>> {
        self.repeated.remove(key).unwrap_or_default()
    }

    /// Removes every line of a repeated key, which must number exactly
    /// what value `idx` of the `count` line declares.
    pub fn counted(
        &mut self,
        key: &str,
        count: &Line<'_>,
        idx: usize,
    ) -> Result<Vec<Line<'a>>, SimError> {
        let n: u64 = count.at(idx)?;
        let found = self.repeated(key);
        if found.len() as u64 != n {
            let got = found.len();
            let msg = format!("`{}` declares {n} entries, found {got}", count.key);
            return Err(count.err(msg));
        }
        Ok(found)
    }
}

/// A token-level error: the 1-based position of the offending token and
/// what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenError {
    /// 1-based token position.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl TokenError {
    /// An error at token `pos`.
    pub fn new(pos: usize, message: impl Into<String>) -> TokenError {
        TokenError {
            pos,
            message: message.into(),
        }
    }

    /// The error as a `ramp-serve/1` reply line: `err <pos>: <message>`.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!("err {}: {}", self.pos, self.message)
    }
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token {}: {}", self.pos, self.message)
    }
}

impl From<TokenError> for String {
    fn from(e: TokenError) -> String {
        e.to_string()
    }
}

/// A decoded value plus the 1-based position of the token that carried
/// it, so errors found later can still point at that token.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<T> {
    /// The decoded value.
    pub value: T,
    /// 1-based token position.
    pub pos: usize,
}

fn parse_token<T: Field>(what: &str, token: &str, pos: usize) -> Result<T, TokenError> {
    token
        .parse()
        .map_err(|_| TokenError::new(pos, bad_value::<T>(what, token)))
}

/// A strict cursor over one line's whitespace tokens.
#[derive(Debug)]
pub struct Tokens<'a> {
    tokens: Vec<&'a str>,
    pos: usize,
}

impl<'a> Tokens<'a> {
    /// A cursor before the first token of `line`.
    pub fn new(line: &'a str) -> Tokens<'a> {
        Tokens {
            tokens: line.split_whitespace().collect(),
            pos: 0,
        }
    }

    /// Total number of tokens on the line.
    pub fn count(&self) -> usize {
        self.tokens.len()
    }

    /// Position of the last token consumed (0 before the first).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Consumes the next token; `what` names it when it is missing.
    pub fn next(&mut self, what: &str) -> Result<Spanned<&'a str>, TokenError> {
        self.pos += 1;
        match self.tokens.get(self.pos - 1) {
            Some(&value) => Ok(Spanned {
                value,
                pos: self.pos,
            }),
            None => Err(TokenError::new(self.pos, format!("missing {what}"))),
        }
    }

    /// Consumes a bare (non-`key=value`) operand.
    pub fn operand(&mut self, what: &str) -> Result<Spanned<String>, TokenError> {
        match self.next(what) {
            Ok(t) if !t.value.contains('=') => Ok(Spanned {
                value: t.value.to_owned(),
                pos: t.pos,
            }),
            _ => Err(TokenError::new(self.pos, format!("missing {what}"))),
        }
    }

    /// Consumes and decodes a positional value.
    pub fn value<T: Field>(&mut self, what: &str) -> Result<T, TokenError> {
        let t = self.next(what)?;
        parse_token(what, t.value, t.pos)
    }

    /// Consumes a `key=value` token with exactly this key and decodes it.
    pub fn keyed<T: Field>(&mut self, key: &str) -> Result<Spanned<T>, TokenError> {
        let t = self.next(key)?;
        let Some(value) = t.value.strip_prefix(key).and_then(|v| v.strip_prefix('=')) else {
            let msg = format!("expected {key}=..., got `{}`", t.value);
            return Err(TokenError::new(t.pos, msg));
        };
        let value = parse_token(key, value, t.pos)?;
        Ok(Spanned { value, pos: t.pos })
    }

    /// Fails on the first unconsumed token.
    pub fn end(&self) -> Result<(), TokenError> {
        match self.tokens.get(self.pos) {
            Some(t) => Err(TokenError::new(
                self.pos + 1,
                format!("unexpected token `{t}`"),
            )),
            None => Ok(()),
        }
    }

    /// Consumes the rest of the line as an unordered `key=value` tail,
    /// rejecting bare tokens, keys outside `allowed`, and keys given twice.
    pub fn key_values(&mut self, allowed: &[&str]) -> Result<KeyValues<'a>, TokenError> {
        let mut pairs: Vec<(usize, &'a str, &'a str)> = Vec::new();
        while let Some(&token) = self.tokens.get(self.pos) {
            self.pos += 1;
            let msg = match token.split_once('=') {
                None => format!("expected key=value, got `{token}`"),
                Some((key, _)) if !allowed.contains(&key) => {
                    format!("unknown key `{key}` (allowed: {})", allowed.join(", "))
                }
                Some((key, _)) if pairs.iter().any(|&(_, k, _)| k == key) => {
                    format!("key `{key}` given twice")
                }
                Some((key, value)) => {
                    pairs.push((self.pos, key, value));
                    continue;
                }
            };
            return Err(TokenError::new(self.pos, msg));
        }
        Ok(KeyValues { pairs })
    }
}

/// An unordered `key=value` tail read by [`Tokens::key_values`].
#[derive(Debug)]
pub struct KeyValues<'a> {
    pairs: Vec<(usize, &'a str, &'a str)>,
}

impl KeyValues<'_> {
    /// Decodes `key`'s value, if given.
    pub fn get<T: Field>(&self, key: &str) -> Result<Option<Spanned<T>>, TokenError> {
        let Some(&(pos, _, value)) = self.pairs.iter().find(|&&(_, k, _)| k == key) else {
            return Ok(None);
        };
        let value = parse_token(key, value, pos)?;
        Ok(Some(Spanned { value, pos }))
    }

    /// Decodes a required key's value; its absence is reported at `pos`.
    pub fn require<T: Field>(&self, key: &str, pos: usize) -> Result<Spanned<T>, TokenError> {
        self.get(key)?
            .ok_or_else(|| TokenError::new(pos, format!("missing required key `{key}`")))
    }
}

/// FNV-1a over `bytes` (64-bit). Deterministic across runs and platforms,
/// unlike the standard library's randomized default hasher, so it serves
/// record checksums and checkpoint fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit word written as 16 lowercase hex digits: the token that
/// carries an `f64` as its exact IEEE-754 bit pattern, and the checksum
/// of a sealed line. Parsing accepts 1 to 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex64(pub u64);

impl Hex64 {
    /// The bit pattern of `v`.
    pub fn of(v: f64) -> Hex64 {
        Hex64(v.to_bits())
    }

    /// The `f64` with this bit pattern.
    pub fn to_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl fmt::Display for Hex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for Hex64 {
    type Err = ();

    fn from_str(s: &str) -> Result<Hex64, ()> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(());
        }
        u64::from_str_radix(s, 16).map(Hex64).map_err(|_| ())
    }
}

/// Appends the ` sum=<16 hex>` FNV-1a checksum of `line` to it.
pub fn seal(line: &mut String) {
    let sum = Hex64(fnv1a64(line.as_bytes()));
    let _ = write!(line, " sum={sum}");
}

/// Verifies a line written by [`seal`] and returns its body.
pub fn unseal(line: &str) -> Result<&str, String> {
    let (body, recorded) = line
        .rsplit_once(" sum=")
        .ok_or("record has no sum= checksum token")?;
    let recorded = recorded.trim();
    let got: Hex64 = recorded
        .parse()
        .map_err(|()| format!("checksum must be 16 hex digits, got `{recorded}`"))?;
    let expect = Hex64(fnv1a64(body.as_bytes()));
    if got != expect {
        let msg = format!("checksum mismatch: record says {got}, content hashes to {expect}");
        return Err(msg);
    }
    Ok(body)
}

/// What [`corrupt`] puts in place of a numeric token: zero, the `u64`
/// maximum and one past it, a negative, and the float specials.
const HOSTILE_NUMBERS: [&str; 7] = [
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "nan",
    "inf",
    "1e309",
];

/// One seeded corruption of `text`, for robustness tests. It drops,
/// duplicates or swaps a line; drops or duplicates a token; replaces a
/// numeric token (or the value of a numeric `key=value` token) with a
/// hostile number; or truncates a line mid-token. Lines that carried a
/// valid [`seal`] are sealed again afterwards, so the corruption reaches
/// field decoding instead of stopping at the checksum.
pub fn corrupt(text: &str, seed: u64) -> String {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut lines: Vec<(String, bool)> = text
        .lines()
        .map(|l| match unseal(l) {
            Ok(body) => (body.to_owned(), true),
            Err(_) => (l.to_owned(), false),
        })
        .collect();
    let n = lines.len();
    if n > 0 {
        let i = rng.gen_usize(0..n);
        match rng.gen_usize(0..7) {
            0 => drop(lines.remove(i)),
            1 => lines.insert(i, lines[i].clone()),
            2 => lines.swap(i, rng.gen_usize(0..n)),
            kind => {
                let line = &mut lines[i].0;
                let mut tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
                if !tokens.is_empty() {
                    let t = rng.gen_usize(0..tokens.len());
                    match kind {
                        3 => drop(tokens.remove(t)),
                        4 => tokens.insert(t, tokens[t].clone()),
                        5 => {
                            // The first numeric token from `t` on, wrapping.
                            let value_at = |tok: &str| tok.rfind('=').map_or(0, |p| p + 1);
                            let numeric = |tok: &String| {
                                tok[value_at(tok)..].starts_with(|c: char| c.is_ascii_digit())
                            };
                            let k = (t..tokens.len())
                                .chain(0..t)
                                .find(|&k| numeric(&tokens[k]))
                                .unwrap_or(t);
                            let hostile = HOSTILE_NUMBERS[rng.gen_usize(0..HOSTILE_NUMBERS.len())];
                            let key_len = value_at(&tokens[k]);
                            tokens[k].truncate(key_len);
                            tokens[k].push_str(hostile);
                        }
                        _ => {
                            let mut cut = rng.gen_usize(0..tokens[t].len());
                            while !tokens[t].is_char_boundary(cut) {
                                cut -= 1;
                            }
                            tokens[t].truncate(cut);
                            tokens.truncate(t + 1);
                        }
                    }
                }
                *line = tokens.join(" ");
            }
        }
    }
    let mut out = String::with_capacity(text.len() + 32);
    for (mut line, sealed) in lines {
        if sealed {
            seal(&mut line);
        }
        out.push_str(&line);
        out.push('\n');
    }
    if !text.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static SCHEMA: Schema = Schema {
        singles: &["a", "n", "list"],
        repeated: &["row"],
        missing: "required key",
    };

    #[test]
    fn scanner_files_lines_and_names_positions() {
        let text = "# header\na 1.5\n\nn 7 # trailing comment\nrow x\nrow y\nlist 2 4 5\n";
        let mut doc = Doc::scan(text, &SCHEMA).unwrap();
        assert_eq!(doc.value::<f64>("a").unwrap(), 1.5);
        assert_eq!(doc.value::<u32>("n").unwrap(), 7);
        assert_eq!(doc.list::<u16>("list").unwrap(), vec![4, 5]);
        let rows = doc.repeated("row");
        assert_eq!((rows[0].no, rows[1].no), (5, 6));
        let err = doc.take("a").unwrap_err().to_string();
        assert!(err.contains("missing required key `a`"), "{err}");

        let err = Doc::scan("a 1\nb 2\n", &SCHEMA).unwrap_err().to_string();
        assert!(err.contains("line 2: unknown key `b`"), "{err}");
        let err = Doc::scan("a 1\n\na 2\n", &SCHEMA).unwrap_err().to_string();
        assert!(
            err.contains("line 3: duplicate key `a` (first at line 1)"),
            "{err}"
        );
    }

    #[test]
    fn accessors_reject_malformed_values_with_the_line() {
        let line = lines("n 7 x").next().unwrap();
        let err = line.one::<u32>().unwrap_err().to_string();
        assert!(err.contains("line 1: `n` expects 1 value, got 2"), "{err}");
        let err = line.at::<u32>(1).unwrap_err().to_string();
        assert!(
            err.contains("`n` must be a non-negative integer, got `x`"),
            "{err}"
        );
        assert!(line.at::<u32>(5).is_err());
        // A count is compared, never allocated from.
        let huge = lines("list 18446744073709551615 1").next().unwrap();
        let err = huge.list::<u64>().unwrap_err().to_string();
        assert!(
            err.contains("declares 18446744073709551615 values, got 1"),
            "{err}"
        );
        assert!(lines("list").next().unwrap().list::<u64>().is_err());
    }

    #[test]
    fn counted_repeats_must_match_their_declaration() {
        let mut doc = Doc::scan("n 3\nrow a\nrow b\n", &SCHEMA).unwrap();
        let count = doc.take("n").unwrap();
        let err = doc.counted("row", &count, 0).unwrap_err().to_string();
        assert!(
            err.contains("line 1: `n` declares 3 entries, found 2"),
            "{err}"
        );
    }

    #[test]
    fn token_cursor_reports_positions() {
        let mut t = Tokens::new("run app=gzip n=7 x");
        assert_eq!(t.next("verb").unwrap().value, "run");
        assert_eq!(t.keyed::<String>("app").unwrap().value, "gzip");
        let err = t.keyed::<u64>("m").unwrap_err();
        assert_eq!(err.to_string(), "token 3: expected m=..., got `n=7`");
        assert_eq!(t.end().unwrap_err().pos, 4);

        let mut t = Tokens::new("eval gzip freq=4e9 vdd=1.5");
        t.next("verb").unwrap();
        assert_eq!(t.operand("app").unwrap().pos, 2);
        let kv = t.key_values(&["freq", "vdd", "index"]).unwrap();
        assert_eq!(kv.get::<f64>("freq").unwrap().unwrap().value, 4e9);
        assert_eq!(kv.require::<u64>("index", 1).unwrap_err().pos, 1);
        let err = kv.get::<u32>("vdd").unwrap_err();
        assert_eq!(err.pos, 4);

        for (line, pos, needle) in [
            ("eval gzip 4ghz", 3, "expected key=value"),
            ("eval gzip frq=1", 3, "unknown key `frq`"),
            ("eval gzip freq=1 freq=2", 4, "given twice"),
        ] {
            let mut t = Tokens::new(line);
            t.next("verb").unwrap();
            t.operand("app").unwrap();
            let err = t.key_values(&["freq"]).unwrap_err();
            assert_eq!(err.pos, pos, "{line}");
            assert!(err.message.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn sealed_lines_verify_and_hex_tokens_round_trip() {
        let mut line = String::from("run a=1");
        seal(&mut line);
        assert_eq!(unseal(&line), Ok("run a=1"));
        let tampered = line.replace("a=1", "a=2");
        assert!(unseal(&tampered).unwrap_err().contains("checksum mismatch"));
        assert!(unseal("run a=1").is_err());

        let v = 0.1_f64 + 0.2;
        let token = Hex64::of(v).to_string();
        assert_eq!(token.len(), 16);
        assert_eq!(
            token.parse::<Hex64>().unwrap().to_f64().to_bits(),
            v.to_bits()
        );
        assert!("+1".parse::<Hex64>().is_err());
        assert!("00000000000000000".parse::<Hex64>().is_err());
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn corruption_is_seeded_and_keeps_seals_valid() {
        let mut record = String::from("run a=1 b=2 3 4");
        seal(&mut record);
        let text = format!("header\n{record}\n");
        let mut changed = 0;
        for seed in 0..300 {
            let bad = corrupt(&text, seed);
            assert_eq!(
                bad,
                corrupt(&text, seed),
                "seed {seed} is not deterministic"
            );
            changed += usize::from(bad != text);
            for line in bad.lines().filter(|l| l.contains(" sum=")) {
                assert!(unseal(line).is_ok(), "seed {seed}: `{line}` left unsealed");
            }
        }
        assert!(
            changed > 250,
            "only {changed} of 300 cases changed the text"
        );
    }
}
