//! Offline stand-in for `serde`, used only to build the benchmark where
//! no crate registry is reachable. `Serialize` is implemented for every
//! `Debug` type and renders that Debug form; `Deserialize` is a marker.
//! Nothing the benchmark measures serializes: qlog is off on the served
//! path.

pub use serde_derive::{Deserialize, Serialize};

/// Anything printable serializes as its `Debug` form.
pub trait Serialize {
    /// Writes the value's rendering.
    fn render(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result;
}

impl<T: std::fmt::Debug + ?Sized> Serialize for T {
    fn render(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        write!(out, "{self:?}")
    }
}

/// Marker: the workspace derives it but never deserializes outside tests.
pub trait Deserialize<'de> {}

impl<'de, T: ?Sized> Deserialize<'de> for T {}
