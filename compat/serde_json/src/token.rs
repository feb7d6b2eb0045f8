//! The pull tokenizer: one strict pass over a JSON document that yields its
//! tokens as [`Event`]s, with byte offsets, and never builds a tree.
//!
//! [`crate::from_str`] builds its [`Value`] from these events, and a typed
//! decoder can read the events straight into its own types, so a document is
//! validated once, by one grammar.  The grammar is strict JSON with three
//! leniencies kept from the recursive-descent parser this replaced:
//!
//! * a number is the longest run of `-`, digits, `.`, `e`, `E` and `+` that
//!   starts with `-` or a digit, accepted when Rust parses it (`007`, `1.`,
//!   `-.5` and `1e999` are numbers; `1-2` and `-` are not);
//! * raw control characters are allowed inside strings;
//! * a `\u` escape is four bytes that `u32::from_str_radix(_, 16)` accepts
//!   (so `\u+041` reads as `A`), and a surrogate, paired or lone, decodes to
//!   U+FFFD.
//!
//! Values nest at most 128 levels below the top-level value: the first
//! value that would start deeper is an error.

use std::borrow::Cow;

use crate::de::Error;
use crate::value::{Map, Number, Value};

/// The deepest nesting at which a value may start: the top-level value sits
/// at depth 0, the items of a top-level array at depth 1.
const MAX_DEPTH: usize = 128;

/// One token of a JSON document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, validated but not yet converted.
    Number(JsonNumber<'a>),
    /// A string value.
    String(JsonStr<'a>),
    /// An object key; its `:` is already consumed, and the member's value
    /// follows.
    Key(JsonStr<'a>),
    /// `[`.
    StartArray,
    /// `]`.
    EndArray,
    /// `{`.
    StartObject,
    /// `}`.
    EndObject,
}

/// A string token: the text between its quotes, escapes still in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The string's value: borrowed when it has no escapes.
    pub fn decode(&self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let bytes = self.raw.as_bytes();
        let mut out = String::with_capacity(bytes.len());
        let mut run = 0;
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'\\' {
                i += 1;
                continue;
            }
            out.push_str(&self.raw[run..i]);
            let unescaped = match bytes[i + 1] {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                _ => {
                    let code = hex_code(&bytes[i + 2..i + 6]).expect("checked by the tokenizer");
                    i += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
            };
            out.push(unescaped);
            i += 2;
            run = i;
        }
        out.push_str(&self.raw[run..]);
        Cow::Owned(out)
    }
}

/// A number token, checked against the grammar; the conversions give the
/// [`Number`] that [`crate::from_str`] stores for it, without building one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonNumber<'a> {
    text: &'a str,
    /// The digits of an integer spelling (no `.`, `e`, `E`, `+` or `-`
    /// after the first byte); 0 for any other spelling.
    digits: usize,
    /// An integer spelling's magnitude, exact when `digits <= 19`.
    magnitude: u64,
}

/// `10^k` for `k` in `0..=22`: every one is exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

impl JsonNumber<'_> {
    /// The stored number: an integer spelling that fits `u64` is
    /// [`Number::PosInt`], one that fits `i64` is [`Number::NegInt`] (so
    /// `-0` is `NegInt(0)`), and anything else is the `f64` Rust parses.
    pub fn to_number(&self) -> Number {
        let negative = self.text.as_bytes()[0] == b'-';
        match self.digits {
            1..=18 if negative => return Number::NegInt(-(self.magnitude as i64)),
            1..=19 if !negative => return Number::PosInt(self.magnitude),
            _ => {}
        }
        if self.digits > 0 {
            if let Ok(n) = self.text.parse::<u64>() {
                return Number::PosInt(n);
            }
            if let Ok(n) = self.text.parse::<i64>() {
                return Number::NegInt(n);
            }
        }
        Number::Float(self.parse_f64())
    }

    /// `self.to_number().as_u64()`.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        if self.digits == 0 || self.text.as_bytes()[0] == b'-' {
            None
        } else if self.digits <= 19 {
            Some(self.magnitude)
        } else {
            self.text.parse().ok()
        }
    }

    /// `self.to_number().as_f64()`, bit for bit: an integer spelling is
    /// converted from its integer (so `-0` is `+0.0`), anything else is
    /// what `str::parse::<f64>` returns.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self.digits {
            0 => self.parse_f64(),
            1..=15 => {
                // Exact: the magnitude is below 10^15 < 2^53.  `-0` stores as
                // `NegInt(0)`, which is +0.0.
                let magnitude = self.magnitude as f64;
                if self.text.as_bytes()[0] == b'-' && self.magnitude != 0 {
                    -magnitude
                } else {
                    magnitude
                }
            }
            _ => self.to_number().as_f64(),
        }
    }

    /// `str::parse::<f64>`, with Clinger's fast path: a mantissa of at most
    /// 15 significant digits is exact in an `f64`, and so is `10^k` for
    /// `k <= 22`, so one multiplication or division is correctly rounded.
    fn parse_f64(&self) -> f64 {
        let bytes = self.text.as_bytes();
        let negative = bytes[0] == b'-';
        let mut i = usize::from(negative);
        let mut mantissa: u64 = 0;
        let mut significant = 0usize;
        let mut exponent: i64 = 0;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            if mantissa != 0 || bytes[i] != b'0' {
                significant += 1;
                if significant > 15 {
                    return self.slow_f64();
                }
                mantissa = mantissa * 10 + u64::from(bytes[i] - b'0');
            }
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'.' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                if mantissa != 0 || bytes[i] != b'0' {
                    significant += 1;
                    if significant > 15 {
                        return self.slow_f64();
                    }
                    mantissa = mantissa * 10 + u64::from(bytes[i] - b'0');
                }
                exponent -= 1;
                i += 1;
            }
        }
        if i < bytes.len() {
            // An exponent: `e` or `E`, an optional sign and at least one digit.
            i += 1;
            let exp_negative = bytes[i] == b'-';
            if bytes[i] == b'-' || bytes[i] == b'+' {
                i += 1;
            }
            if bytes.len() - i > 4 {
                return self.slow_f64();
            }
            let mut exp: i64 = 0;
            while i < bytes.len() {
                exp = exp * 10 + i64::from(bytes[i] - b'0');
                i += 1;
            }
            exponent += if exp_negative { -exp } else { exp };
        }
        let magnitude = if mantissa == 0 {
            0.0
        } else if (0..=22).contains(&exponent) {
            mantissa as f64 * POW10[exponent as usize]
        } else if (-22..0).contains(&exponent) {
            mantissa as f64 / POW10[(-exponent) as usize]
        } else {
            return self.slow_f64();
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    #[cold]
    fn slow_f64(&self) -> f64 {
        self.text.parse().expect("checked by the tokenizer")
    }
}

/// Whether Rust parses `text`, a run that starts with `-` or a digit, as
/// an `f64` (or, for an integer spelling, as a `u64` or `i64`, which then
/// also parses as an `f64`): an optional `-`, then `digits`, `digits.`,
/// `digits.digits` or `.digits`, then optionally `e`/`E`, an optional sign
/// and digits.
fn valid_number(text: &[u8]) -> bool {
    let mut i = usize::from(text[0] == b'-');
    let digits = |i: &mut usize| {
        let start = *i;
        while *i < text.len() && text[*i].is_ascii_digit() {
            *i += 1;
        }
        *i - start
    };
    let mut mantissa_digits = digits(&mut i);
    if i < text.len() && text[i] == b'.' {
        i += 1;
        mantissa_digits += digits(&mut i);
    }
    if mantissa_digits == 0 {
        return false;
    }
    if i < text.len() && (text[i] == b'e' || text[i] == b'E') {
        i += 1;
        if i < text.len() && (text[i] == b'-' || text[i] == b'+') {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == text.len()
}

/// The code of a `\u` escape's four bytes, as the escape rule reads them.
fn hex_code(hex: &[u8]) -> Option<u32> {
    std::str::from_utf8(hex)
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

/// The end of the number run that starts at `start`: an optional `-`, then
/// any of `0-9 . e E + -`.
fn number_end(bytes: &[u8], start: usize) -> usize {
    let mut end = start + usize::from(bytes[start] == b'-');
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(end) {
        end += 1;
    }
    end
}

/// Scans the number run at `start` (a `-` or a digit) and returns it with
/// its end, or `None` when Rust would not parse it.  An integer spelling's
/// magnitude is accumulated on the way.
#[inline(always)]
fn scan_number(text: &str, start: usize) -> Option<(JsonNumber<'_>, usize)> {
    let bytes = text.as_bytes();
    let sign = usize::from(bytes[start] == b'-');
    let mut end = start + sign;
    let mut integer = true;
    let mut magnitude: u64 = 0;
    while let Some(&c) = bytes.get(end) {
        match c {
            b'0'..=b'9' => {
                magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            }
            b'.' | b'e' | b'E' | b'+' | b'-' => integer = false,
            _ => break,
        }
        end += 1;
    }
    let number = &text[start..end];
    let digits = if integer { end - start - sign } else { 0 };
    // An integer spelling is valid when it has a digit.
    if digits == 0 && (integer || !valid_number(number.as_bytes())) {
        return None;
    }
    Some((
        JsonNumber {
            text: number,
            digits,
            magnitude,
        },
        end,
    ))
}

#[inline(always)]
fn skip_whitespace(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(pos) {
        pos += 1;
    }
    pos
}

/// What the tokenizer expects next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value: the top-level one, an array item after `,`, or an object
    /// member's value.
    Value,
    /// Just after `[`: an item or `]`.
    ArrayStart,
    /// Just after `{`: a key or `}`.
    ObjectStart,
    /// After an item or member: `,` or the closing bracket.
    Separator,
    /// After the top-level value: only whitespace.
    End,
}

/// A strict pull tokenizer over one JSON document.
///
/// Each [`Tokenizer::next_event`] call consumes input up to the end of the
/// next token and returns it; after the top-level value it checks that
/// only whitespace follows and returns `None`.  Errors carry the byte offset
/// and message [`crate::from_str`] reports.  After an error, the tokenizer's
/// state is unspecified.
#[derive(Debug)]
pub struct Tokenizer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    state: State,
    /// Open containers, innermost highest: bit `d` is set when the
    /// container at depth `d` is an object.
    objects: [u64; 3],
    depth: usize,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `text`.
    pub fn new(text: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            state: State::Value,
            objects: [0; 3],
            depth: 0,
        }
    }

    /// The byte offset just past the last token read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Reads the next token; `None` once the top-level value is complete
    /// and only whitespace follows it.
    #[inline(always)]
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, Error> {
        match self.state {
            State::Value => self.value().map(Some),
            State::Separator => {
                self.skip_whitespace();
                let in_object = self.in_object();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if in_object {
                            self.key().map(Some)
                        } else {
                            self.value().map(Some)
                        }
                    }
                    Some(b']') if !in_object => {
                        self.pos += 1;
                        Ok(Some(self.close(Event::EndArray)))
                    }
                    Some(b'}') if in_object => {
                        self.pos += 1;
                        Ok(Some(self.close(Event::EndObject)))
                    }
                    _ if in_object => Err(Error::new("expected ',' or '}'", self.pos)),
                    _ => Err(Error::new("expected ',' or ']'", self.pos)),
                }
            }
            State::ArrayStart => {
                self.skip_whitespace();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Some(self.close(Event::EndArray)));
                }
                self.value().map(Some)
            }
            State::ObjectStart => {
                self.skip_whitespace();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Some(self.close(Event::EndObject)));
                }
                self.key().map(Some)
            }
            State::End => {
                self.skip_whitespace();
                if self.pos != self.bytes.len() {
                    return Err(Error::new("trailing characters", self.pos));
                }
                Ok(None)
            }
        }
    }

    /// Reads the rest of the value that `first`, the event just read,
    /// starts, and builds it as a [`Value`].
    ///
    /// # Panics
    ///
    /// If `first` is a key or a closing bracket, which start no value.
    pub fn value_from(&mut self, first: Event<'a>) -> Result<Value, Error> {
        // Recursion is bounded: the tokenizer refuses values deeper than
        // `MAX_DEPTH`.
        Ok(match first {
            Event::Null => Value::Null,
            Event::Bool(flag) => Value::Bool(flag),
            Event::Number(number) => Value::Number(number.to_number()),
            Event::String(text) => Value::String(text.decode().into_owned()),
            Event::StartArray => {
                let mut items = Vec::new();
                let mut item =
                    self.array_numbers(|number| items.push(Value::Number(number.to_number())))?;
                loop {
                    match item {
                        Event::EndArray => break Value::Array(items),
                        item => items.push(self.value_from(item)?),
                    }
                    item = self.pending()?;
                }
            }
            Event::StartObject => {
                let mut map = Map::new();
                loop {
                    match self.pending()? {
                        Event::EndObject => break Value::Object(map),
                        Event::Key(key) => {
                            let key = key.decode().into_owned();
                            let first = self.pending()?;
                            map.insert(key, self.value_from(first)?);
                        }
                        _ => unreachable!("an object holds keys and values"),
                    }
                }
            }
            Event::Key(_) | Event::EndArray | Event::EndObject => {
                panic!("value_from: {first:?} starts no value")
            }
        })
    }

    /// Reads and drops the rest of the value that `first`, the event just
    /// read, starts (nothing more when it is a scalar).
    pub fn skip_from(&mut self, first: Event<'a>) -> Result<(), Error> {
        let mut depth = usize::from(matches!(first, Event::StartArray | Event::StartObject));
        while depth > 0 {
            match self.pending()? {
                Event::StartArray | Event::StartObject => depth += 1,
                Event::EndArray | Event::EndObject => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Reads the items of the array whose `[` was the last event for as
    /// long as they are numbers, handing each to `each`, and returns the
    /// event after them: `EndArray`, or the first item that is not a number.
    ///
    /// The events and errors are those [`Tokenizer::next_event`] gives; a
    /// run of numbers and commas is only read in a tighter loop, and
    /// anything else goes through `next_event`.
    ///
    /// # Panics
    ///
    /// If the last event was not `StartArray`.
    #[inline]
    pub fn array_numbers(
        &mut self,
        mut each: impl FnMut(JsonNumber<'a>),
    ) -> Result<Event<'a>, Error> {
        assert_eq!(
            self.state,
            State::ArrayStart,
            "array_numbers: not after `[`"
        );
        if self.depth <= MAX_DEPTH {
            let bytes = self.bytes;
            let mut pos = self.pos;
            loop {
                pos = skip_whitespace(bytes, pos);
                let Some(b'-' | b'0'..=b'9') = bytes.get(pos) else {
                    break;
                };
                let Some((number, end)) = scan_number(self.text, pos) else {
                    break;
                };
                each(number);
                self.state = State::Separator;
                pos = skip_whitespace(bytes, end);
                match bytes.get(pos) {
                    Some(b',') => {
                        pos += 1;
                        self.state = State::Value;
                    }
                    Some(b']') => {
                        self.pos = pos + 1;
                        return Ok(self.close(Event::EndArray));
                    }
                    _ => break,
                }
            }
            self.pos = pos;
        }
        self.pending()
    }

    /// The next event inside a value that is not complete yet.
    fn pending(&mut self) -> Result<Event<'a>, Error> {
        Ok(self
            .next_event()?
            .expect("a value in progress ends with a token"))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_whitespace(&mut self) {
        self.pos = skip_whitespace(self.bytes, self.pos);
    }

    /// The state after a complete value.
    #[inline]
    fn after_value(&mut self) {
        self.state = if self.depth == 0 {
            State::End
        } else {
            State::Separator
        };
    }

    /// Whether the innermost open container is an object.
    #[inline]
    fn in_object(&self) -> bool {
        let depth = self.depth - 1;
        (self.objects[depth / 64] >> (depth % 64)) & 1 == 1
    }

    fn open(&mut self, object: bool) {
        let (word, bit) = (self.depth / 64, self.depth % 64);
        if object {
            self.objects[word] |= 1 << bit;
        } else {
            self.objects[word] &= !(1 << bit);
        }
        self.depth += 1;
    }

    #[inline]
    fn close(&mut self, event: Event<'a>) -> Event<'a> {
        self.depth -= 1;
        self.after_value();
        event
    }

    #[inline(always)]
    fn value(&mut self) -> Result<Event<'a>, Error> {
        self.skip_whitespace();
        if self.depth > MAX_DEPTH {
            return Err(Error::new("recursion limit exceeded", self.pos));
        }
        let event = match self.peek() {
            None => return Err(Error::new("unexpected end of input", self.pos)),
            Some(b'-' | b'0'..=b'9') => Event::Number(self.number()?),
            Some(b'"') => Event::String(self.string()?),
            Some(b'[') => {
                self.pos += 1;
                self.open(false);
                self.state = State::ArrayStart;
                return Ok(Event::StartArray);
            }
            Some(b'{') => {
                self.pos += 1;
                self.open(true);
                self.state = State::ObjectStart;
                return Ok(Event::StartObject);
            }
            Some(b'n') => self.keyword("null", Event::Null)?,
            Some(b't') => self.keyword("true", Event::Bool(true))?,
            Some(b'f') => self.keyword("false", Event::Bool(false))?,
            Some(c) => {
                return Err(Error::new(
                    format!("unexpected character {:?}", c as char),
                    self.pos,
                ))
            }
        };
        self.after_value();
        Ok(event)
    }

    fn key(&mut self) -> Result<Event<'a>, Error> {
        self.skip_whitespace();
        let key = self.string()?;
        self.skip_whitespace();
        if self.peek() != Some(b':') {
            return Err(Error::new(format!("expected {:?}", ':'), self.pos));
        }
        self.pos += 1;
        self.state = State::Value;
        Ok(Event::Key(key))
    }

    fn keyword(&mut self, keyword: &str, event: Event<'a>) -> Result<Event<'a>, Error> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(event)
        } else {
            Err(Error::new(format!("expected {keyword:?}"), self.pos))
        }
    }

    #[inline(always)]
    fn number(&mut self) -> Result<JsonNumber<'a>, Error> {
        match scan_number(self.text, self.pos) {
            Some((number, end)) => {
                self.pos = end;
                Ok(number)
            }
            None => {
                let text = &self.text[self.pos..number_end(self.bytes, self.pos)];
                Err(Error::new(format!("invalid number {text:?}"), self.pos))
            }
        }
    }

    fn string(&mut self) -> Result<JsonStr<'a>, Error> {
        if self.peek() != Some(b'"') {
            return Err(Error::new(format!("expected {:?}", '"'), self.pos));
        }
        self.pos += 1;
        let start = self.pos;
        let mut escaped = false;
        loop {
            // Every byte but the quote and the backslash stands for itself
            // (the text is UTF-8, and neither byte occurs inside a
            // multi-byte character).
            let rest = &self.bytes[self.pos..];
            let Some(skip) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(Error::new("unterminated string", self.pos));
            };
            self.pos += skip;
            if self.bytes[self.pos] == b'"' {
                let raw = &self.text[start..self.pos];
                self.pos += 1;
                return Ok(JsonStr { raw, escaped });
            }
            escaped = true;
            self.pos += 1;
            match self.peek() {
                Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| Error::new("truncated \\u escape", self.pos))?;
                    if hex_code(hex).is_none() {
                        return Err(Error::new("invalid \\u escape", self.pos));
                    }
                    self.pos += 4;
                }
                _ => return Err(Error::new("invalid escape", self.pos)),
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(text: &str) -> Result<Vec<(usize, Event<'_>)>, Error> {
        let mut tokens = Tokenizer::new(text);
        let mut out = Vec::new();
        while let Some(event) = tokens.next_event()? {
            out.push((tokens.offset(), event));
        }
        Ok(out)
    }

    #[test]
    fn events_follow_the_document_with_offsets() {
        let text = r#" {"a" : [1, -2.5e1, "x\ny"], "b": {}, "c": [null, true, false]} "#;
        let got: Vec<String> = events(text)
            .unwrap()
            .into_iter()
            .map(|(offset, event)| match event {
                Event::Key(key) => format!("{offset}:key {}", key.decode()),
                Event::String(s) => format!("{offset}:str {:?}", s.decode()),
                Event::Number(n) => format!("{offset}:num {:?}", n.to_number()),
                other => format!("{offset}:{other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                "2:StartObject",
                "7:key a",
                "9:StartArray",
                "10:num PosInt(1)",
                "18:num Float(-25.0)",
                "26:str \"x\\ny\"",
                "27:EndArray",
                "33:key b",
                "35:StartObject",
                "36:EndObject",
                "42:key c",
                "44:StartArray",
                "48:Null",
                "54:Bool(true)",
                "61:Bool(false)",
                "62:EndArray",
                "63:EndObject",
            ]
        );
    }

    #[test]
    fn numbers_convert_as_the_stored_number_does() {
        for text in [
            "0",
            "-0",
            "007",
            "-007",
            "1",
            "1.0",
            "1e0",
            "-0.0",
            "1e999",
            "-1e999",
            "1.",
            "-.5",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "123456789012345",
            "1234567890123456",
            "0.1",
            "2.5e-3",
            "1e22",
            "1e23",
            "9007199254740993",
            "1e-400",
            "1E+2",
        ] {
            let mut tokens = Tokenizer::new(text);
            let Some(Event::Number(number)) = tokens.next_event().unwrap() else {
                panic!("{text} is a number");
            };
            let stored = number.to_number();
            assert_eq!(number.as_u64(), stored.as_u64(), "{text}");
            assert_eq!(
                number.as_f64().to_bits(),
                stored.as_f64().to_bits(),
                "{text}"
            );
            if number.digits == 0 {
                let parsed: f64 = text.parse().unwrap();
                assert_eq!(number.as_f64().to_bits(), parsed.to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn escapes_decode_and_plain_strings_borrow() {
        let mut tokens = Tokenizer::new(r#"["plain", "aA\u+042\ud83d\"\/"]"#);
        tokens.next_event().unwrap();
        let Some(Event::String(plain)) = tokens.next_event().unwrap() else {
            panic!("a string");
        };
        assert!(matches!(plain.decode(), Cow::Borrowed("plain")));
        let Some(Event::String(escaped)) = tokens.next_event().unwrap() else {
            panic!("a string");
        };
        assert_eq!(escaped.decode(), "aAB\u{fffd}\"/");
    }

    #[test]
    fn skip_and_build_read_whole_values() {
        let mut tokens = Tokenizer::new(r#"[[1, {"k": [2]}], "x", {"a": 1, "a": 2}]"#);
        assert_eq!(tokens.next_event().unwrap(), Some(Event::StartArray));
        let first = tokens.next_event().unwrap().unwrap();
        tokens.skip_from(first).unwrap();
        let second = tokens.next_event().unwrap().unwrap();
        assert_eq!(
            tokens.value_from(second).unwrap(),
            Value::String("x".into())
        );
        let third = tokens.next_event().unwrap().unwrap();
        let object = tokens.value_from(third).unwrap();
        assert_eq!(object["a"], 2);
        assert_eq!(object.as_object().unwrap().len(), 1);
        assert_eq!(tokens.next_event().unwrap(), Some(Event::EndArray));
        assert_eq!(tokens.next_event().unwrap(), None);
    }

    #[test]
    fn depth_is_bounded_where_a_value_would_start() {
        let open = "[".repeat(MAX_DEPTH + 1);
        let close = "]".repeat(MAX_DEPTH + 1);
        assert!(events(&format!("{open}{close}")).is_ok());
        let err = events(&format!("{open}1{close}")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("recursion limit exceeded at byte offset {}", MAX_DEPTH + 1)
        );
    }
}
