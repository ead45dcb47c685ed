//! Packet protection and handshake for mpquic.
//!
//! The paper's evaluation uses real cryptography (QUIC crypto \[31\] /
//! TLS 1.2) because crypto costs CPU on their emulation platform; *this*
//! reproduction measures transport dynamics in a simulator where CPU time
//! is not the metric, so we substitute a **toy AEAD** (documented in
//! DESIGN.md §2/§8/§18): a keyed xoshiro keystream cipher with a 64-bit
//! keyed lane-parallel MAC, cheap enough that the real-socket endpoint's
//! per-packet CPU is not mostly this stand-in. It is *not* secure; it
//! exists so that
//!
//! * the packet layout (header as associated data, sealed payload, tag) is
//!   faithful,
//! * tampering and key mismatches are actually detected in tests,
//! * and the paper's **nonce-reuse-across-paths** concern (§3, Reliable
//!   Data Transmission) is structurally real: the nonce is derived from the
//!   Path ID and per-path packet number, and [`nonce`] exposes both
//!   mitigations the paper discusses.
//!
//! The handshake model ([`handshake`]) reproduces gQUIC's 1-RTT secure
//! handshake (CHLO → SHLO) carried in CRYPTO frames over the initial path,
//! giving MPQUIC its 1-RTT connection establishment versus TCP+TLS 1.2's
//! 3 RTTs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod handshake;
pub mod nonce;

pub use aead::{Aead, CryptoError, Key, TAG_SIZE};
pub use handshake::{
    ClientHandshake, HandshakeEvent, HandshakeMessage, ServerHandshake, SessionKeys,
};
pub use nonce::{nonce_for, NonceMode};
