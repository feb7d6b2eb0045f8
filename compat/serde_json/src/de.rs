//! Deserialization: [`from_str`] builds a [`Value`] from the pull
//! tokenizer's events ([`crate::Tokenizer`]).

use crate::token::Tokenizer;
use crate::value::Value;

/// Parse/serialize error (line/column are not tracked; the byte offset is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl Error {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> Self {
        Error {
            message: message.into(),
            offset,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte offset {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// Types constructible from a parsed JSON tree.
pub trait Deserialize: Sized {
    /// Builds `Self` from a parsed [`Value`].
    fn from_json_value(value: Value) -> Result<Self, Error>;
}

impl Deserialize for Value {
    fn from_json_value(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}

/// Parses a complete JSON document (trailing whitespace is allowed, trailing
/// content is an error, like serde_json).
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut tokens = Tokenizer::new(input);
    let first = tokens
        .next_event()?
        .expect("a document starts with a value or fails");
    let value = tokens.value_from(first)?;
    if tokens.next_event()?.is_some() {
        unreachable!("the tokenizer ends after the top-level value");
    }
    T::from_json_value(value)
}
