//! Offline stand-in for `serde_json`: the three writers the workspace
//! calls, each emitting the value's `Debug` form (see the `serde`
//! stand-in). The output is not JSON; the benchmark never reads it.

use serde::Serialize;

/// Error type kept for signature compatibility.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Renders `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.render(&mut out).map_err(|e| Error(e.to_string()))?;
    Ok(out)
}

/// Renders `value` (same as [`to_string`]).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_string(value)
}

/// Renders `value` into `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let text = to_string(value)?;
    writer
        .write_all(text.as_bytes())
        .map_err(|e| Error(e.to_string()))
}
