//! The recursive-descent parser [`crate::from_str`] ran before the pull
//! tokenizer, kept as the oracle: on every input the tokenizer-built parse
//! must give the same [`Value`] (numbers bit for bit, keys in the same
//! order), or the same error message at the same byte offset.
//!
//! The inputs are the server's request corpus, the grammar's edge cases,
//! every short number spelling, generated request-shaped documents with
//! shuffled keys, spacing and spellings, and byte mutations of all of them.

use crate::de::Error;
use crate::value::{Map, Number, Value};

/// Parses `input` the way `from_str` did before the tokenizer.
pub(crate) fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new("trailing characters", parser.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected {:?}", byte as char), self.pos))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::new("recursion limit exceeded", self.pos));
        }
        match self.peek() {
            None => Err(Error::new("unexpected end of input", self.pos)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(Error::new(
                format!("unexpected character {:?}", c as char),
                self.pos,
            )),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(Error::new(format!("expected {keyword:?}"), self.pos))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape", self.pos))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| Error::new("invalid \\u escape", self.pos))?;
                            // Surrogate pairs are not reconstructed; lone
                            // surrogates become the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error::new("invalid UTF-8", self.pos))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number", start))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        let f: f64 = text
            .parse()
            .map_err(|_| Error::new(format!("invalid number {text:?}"), start))?;
        Ok(Value::Number(Number::Float(f)))
    }
}

/// A small deterministic generator (splitmix64) for the generated cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

const SPACES: &[&str] = &["", "", "", " ", "  ", "\t", "\n", "\r\n "];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "-3",
    "1.0",
    "3.5",
    "-2.25",
    "1e0",
    "2E+1",
    "-0",
    "-0.0",
    "007",
    "1e999",
    "-1e999",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "0.1",
    "1.",
    "-.5",
    "123456789012345.6",
    "1e-400",
    "5e-324",
    "1-2",
    "-",
    "1e",
    "--1",
    "1.2.3",
];

const STRINGS: &[&str] = &[
    "s",
    "observe",
    "mine",
    "ping",
    "updates",
    "édition",
    "\\u0041",
    "\\ud800",
    "\\ud83d\\ude00",
    "\\u+041",
    "\\\"q\\\"",
    "\\\\",
    "\\/",
    "\\b\\f\\n\\r\\t",
    "tab\tin",
    "日本",
    "\\x",
    "\\u12",
];

const KEYS: &[&str] = &[
    "cmd",
    "session",
    "updates",
    "edges",
    "id",
    "proto",
    "k",
    "alphas",
    "measure",
    "vertices",
    "pack",
    "durable",
    "job",
    "budget",
    "deadline_ms",
    "c\\u006dd",
    "other",
];

const COMMANDS: &[&str] = &[
    "ping",
    "observe",
    "load_baseline",
    "mine",
    "topk",
    "sweep",
    "create_session",
    "cancel",
    "stats",
    "shutdown",
    "nope",
];

fn write_value(rng: &mut Rng, out: &mut String, depth: usize) {
    out.push_str(rng.pick(SPACES));
    match rng.below(if depth > 3 { 5 } else { 7 }) {
        0 => out.push_str(rng.pick(&["null", "true", "false"])),
        1 | 2 => out.push_str(rng.pick(NUMBERS)),
        3 | 4 => {
            out.push('"');
            out.push_str(rng.pick(STRINGS));
            out.push('"');
        }
        5 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                write_value(rng, out, depth + 1);
            }
            out.push_str(rng.pick(SPACES));
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", rng.pick(KEYS)));
                write_value(rng, out, depth + 1);
            }
            out.push('}');
        }
    }
    out.push_str(rng.pick(SPACES));
}

/// A request-shaped document: a top-level object whose members come from
/// the protocol's keys (duplicates allowed), with triple lists under
/// `updates` and `edges`.
fn request_document(rng: &mut Rng) -> String {
    let mut out = String::from(rng.pick(SPACES));
    out.push('{');
    for i in 0..1 + rng.below(6) {
        if i > 0 {
            out.push(',');
        }
        let key = rng.pick(KEYS);
        out.push_str(&format!(
            "{}\"{key}\"{}:",
            rng.pick(SPACES),
            rng.pick(SPACES)
        ));
        match key {
            "cmd" => out.push_str(&format!("\"{}\"", rng.pick(COMMANDS))),
            "updates" | "edges" => {
                out.push('[');
                for j in 0..rng.below(5) {
                    if j > 0 {
                        out.push(',');
                    }
                    let arity = rng.pick(&["2", "3", "3", "3", "1", "4"]).parse().unwrap();
                    out.push('[');
                    for slot in 0..arity {
                        if slot > 0 {
                            out.push(',');
                        }
                        if rng.below(8) == 0 {
                            write_value(rng, &mut out, 3);
                        } else {
                            out.push_str(&rng.below(1000).to_string());
                        }
                    }
                    out.push(']');
                }
                out.push(']');
            }
            _ => write_value(rng, &mut out, 1),
        }
    }
    out.push('}');
    out.push_str(rng.pick(SPACES));
    out
}

/// One to three byte edits: a replaced, inserted or deleted byte, a
/// duplicated run or a truncation; invalid UTF-8 is replaced, since the
/// parser takes `&str`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    const BYTES: &[u8] = b"{}[],:\"\\-+.eE0159 \tnutfal\x00\x7f\xc3\xa9";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = BYTES[rng.below(BYTES.len())],
            1 => bytes.insert(at, BYTES[rng.below(BYTES.len())]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: &str =
        include_str!("../../../crates/dcs-server/tests/data/request_corpus.ndjson");

    /// The parse as a strict fingerprint: `Debug` tells `1` from `1.0` and
    /// `-0.0` from `0.0`, which `Value`'s `==` does not, and shows keys in
    /// their order.
    fn assert_same(input: &str) {
        let new = crate::from_str::<Value>(input).map(|value| format!("{value:?}"));
        let old = parse(input).map(|value| format!("{value:?}"));
        assert_eq!(new, old, "input {input:?}");
    }

    #[test]
    fn corpus_parses_as_the_oracle_parses() {
        for line in CORPUS.lines() {
            assert_same(line);
        }
        for input in [
            "",
            " ",
            "\u{a0}1",
            "{\"a\":1}\u{a0}",
            "\"\\u00e9\"",
            "\"\\uD834\\uDD1E\"",
            "\"\\u0000\"",
            "[\"\u{1}\"]",
            "[1,2",
            "[1 2]",
            "{\"a\"",
            "{\"a\":}",
            "{,}",
            "[,1]",
            "{\"a\":1,,\"b\":2}",
            "nulll",
            "[nulll]",
            "truefalse",
            "\"",
            "\"\\",
            "\"\\u",
            "\"\\u123",
            "\"\\u123\"",
            "\"\\u-123\"",
            "\"\\u+123\"",
            "\"\\u 123\"",
            "\"\\ué12\"",
            "é",
            "[é]",
            "{é:1}",
            "{\"a\":1 \"b\":2}",
        ] {
            assert_same(input);
        }
    }

    #[test]
    fn every_short_number_spelling_parses_as_the_oracle_parses() {
        const ALPHABET: &[u8] = b"-019.eE+";
        let mut spelling = Vec::new();
        for len in 1..=5u32 {
            for mut code in 0..ALPHABET.len().pow(len) {
                spelling.clear();
                for _ in 0..len {
                    spelling.push(ALPHABET[code % ALPHABET.len()]);
                    code /= ALPHABET.len();
                }
                let text = std::str::from_utf8(&spelling).unwrap();
                assert_same(text);
                assert_same(&format!("[{text}]"));
            }
        }
    }

    #[test]
    fn float_spellings_convert_bit_for_bit() {
        let mut rng = Rng(0x5eed);
        for _ in 0..20_000 {
            let int_digits = rng.below(9);
            let frac_digits = rng.below(9);
            let mut text = String::new();
            if rng.below(2) == 0 {
                text.push('-');
            }
            for _ in 0..int_digits.max(1) {
                text.push(char::from(b'0' + rng.below(10) as u8));
            }
            if frac_digits > 0 || rng.below(2) == 0 {
                text.push('.');
                for _ in 0..frac_digits {
                    text.push(char::from(b'0' + rng.below(10) as u8));
                }
            }
            if rng.below(3) == 0 {
                text.push_str(rng.pick(&["e", "E", "e+", "e-", "E-"]));
                text.push_str(&rng.below(40).to_string());
            }
            assert_same(&text);
            let mut tokens = crate::Tokenizer::new(&text);
            let Some(crate::Event::Number(number)) = tokens.next_event().unwrap() else {
                panic!("{text} is a number");
            };
            let stored = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(number.as_f64().to_bits(), stored.to_bits(), "{text}");
            if text.contains(['.', 'e', 'E']) {
                let parsed: f64 = text.parse().unwrap();
                assert_eq!(number.as_f64().to_bits(), parsed.to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn generated_documents_parse_as_the_oracle_parses() {
        let mut rng = Rng(31);
        for _ in 0..4_000 {
            let document = request_document(&mut rng);
            assert_same(&document);
            let mut value = String::new();
            write_value(&mut rng, &mut value, 0);
            assert_same(&value);
        }
    }

    #[test]
    fn mutated_documents_parse_as_the_oracle_parses() {
        let mut rng = Rng(131);
        let corpus: Vec<&str> = CORPUS.lines().collect();
        for round in 0..30_000 {
            let seed = if round % 2 == 0 {
                corpus[rng.below(corpus.len())].to_string()
            } else {
                request_document(&mut rng)
            };
            assert_same(&mutate(&mut rng, &seed));
        }
    }
}
