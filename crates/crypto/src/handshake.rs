//! The 1-RTT secure handshake model (gQUIC crypto, CHLO → SHLO).
//!
//! gQUIC's crypto protocol [Lychev et al., S&P'15] lets a client with a
//! cached server config complete a secure handshake in a single round trip:
//! the client sends a CHLO (client hello, with its key share), the server
//! answers with an SHLO (server hello, with its key share), and both sides
//! derive the forward-secure session keys. The paper relies on this for
//! Fig. 9: "With QUIC, the secure handshake consumes a single
//! round-trip-time. With TLS/TCP, the TCP 3-way handshake and the TLS 1.2
//! handshake consume together 3 round-trip-times."
//!
//! We model the key exchange as a commutative mix of the two parties'
//! random contributions. The handshake bytes travel in CRYPTO frames over
//! the initial path only (the paper leaves multi-path handshakes to future
//! work).
//!
//! **Version negotiation** (paper §2: "During the secure handshake, hosts
//! negotiate the version of QUIC that will be used. The combination of
//! version negotiation and encryption allows QUIC to easily evolve
//! regardless of middleboxes.") — the CHLO carries the client's proposed
//! version; a server that does not support it answers with a
//! [`HandshakeMessage::VersionNegotiation`] listing its supported
//! versions, and the client retries with a mutually supported one (one
//! extra round trip, like gQUIC).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mpquic_util::DetRng;

use crate::aead::Key;

/// Derived directional session keys.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SessionKeys {
    /// Protects client → server packets.
    pub client_to_server: Key,
    /// Protects server → client packets.
    pub server_to_client: Key,
}

/// Redacting, so a `{:?}` of anything that holds the keys (a
/// [`HandshakeEvent`], a failed `assert_eq!`) cannot print them.
impl std::fmt::Debug for SessionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SessionKeys { .. }")
    }
}

/// The protocol version this implementation speaks natively.
pub const SUPPORTED_VERSION: u32 = 1;

/// A handshake message on the crypto stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Client hello: connection id, proposed version, client key share.
    ClientHello {
        /// Connection ID chosen by the client.
        connection_id: u64,
        /// Proposed protocol version.
        version: u32,
        /// Client's random key contribution.
        client_random: [u8; 32],
    },
    /// Server hello: echoed connection id + server key share.
    ServerHello {
        /// Echoed connection ID.
        connection_id: u64,
        /// The accepted version.
        version: u32,
        /// Server's random key contribution.
        server_random: [u8; 32],
    },
    /// The server does not speak the proposed version; here is what it
    /// does speak.
    VersionNegotiation {
        /// Echoed connection ID.
        connection_id: u64,
        /// Versions the server supports.
        supported: Vec<u32>,
    },
}

const TAG_CHLO: u8 = 1;
const TAG_SHLO: u8 = 2;
const TAG_VNEG: u8 = 3;

impl HandshakeMessage {
    /// Serializes the message for transport in CRYPTO frames.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + 8 + 4 + 32);
        match self {
            HandshakeMessage::ClientHello {
                connection_id,
                version,
                client_random,
            } => {
                buf.put_u8(TAG_CHLO);
                buf.put_u64(*connection_id);
                buf.put_u32(*version);
                buf.put_slice(client_random);
            }
            HandshakeMessage::ServerHello {
                connection_id,
                version,
                server_random,
            } => {
                buf.put_u8(TAG_SHLO);
                buf.put_u64(*connection_id);
                buf.put_u32(*version);
                buf.put_slice(server_random);
            }
            HandshakeMessage::VersionNegotiation {
                connection_id,
                supported,
            } => {
                buf.put_u8(TAG_VNEG);
                buf.put_u64(*connection_id);
                buf.put_u8(supported.len() as u8);
                for v in supported {
                    buf.put_u32(*v);
                }
            }
        }
        buf.freeze()
    }

    /// Wire size of an encoded CHLO/SHLO (fixed-size).
    pub const WIRE_SIZE: usize = 1 + 8 + 4 + 32;

    /// Parses one message from the front of `buf`, if complete.
    pub fn decode<B: Buf>(buf: &mut B) -> Option<HandshakeMessage> {
        if buf.remaining() < 1 + 8 {
            return None;
        }
        let tag = buf.get_u8();
        let connection_id = buf.get_u64();
        match tag {
            TAG_CHLO | TAG_SHLO => {
                if buf.remaining() < 4 + 32 {
                    return None;
                }
                let version = buf.get_u32();
                let mut random = [0u8; 32];
                buf.copy_to_slice(&mut random);
                Some(if tag == TAG_CHLO {
                    HandshakeMessage::ClientHello {
                        connection_id,
                        version,
                        client_random: random,
                    }
                } else {
                    HandshakeMessage::ServerHello {
                        connection_id,
                        version,
                        server_random: random,
                    }
                })
            }
            TAG_VNEG => {
                if buf.remaining() < 1 {
                    return None;
                }
                let count = buf.get_u8() as usize;
                if buf.remaining() < count * 4 {
                    return None;
                }
                let supported = (0..count).map(|_| buf.get_u32()).collect();
                Some(HandshakeMessage::VersionNegotiation {
                    connection_id,
                    supported,
                })
            }
            _ => None,
        }
    }
}

/// Derives the initial (pre-handshake) packet-protection key from the
/// connection ID, like QUIC's initial secrets: both endpoints can compute
/// it before any key exchange, it only obscures, not secures.
pub fn initial_key(connection_id: u64) -> Key {
    derive(b"mpquic initial", connection_id, &[0u8; 32], &[0u8; 32])
}

/// Derives the forward-secure session keys from both parties' randoms.
pub fn session_keys(
    connection_id: u64,
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> SessionKeys {
    SessionKeys {
        client_to_server: derive(b"mpquic c2s", connection_id, client_random, server_random),
        server_to_client: derive(b"mpquic s2c", connection_id, client_random, server_random),
    }
}

fn derive(label: &[u8], connection_id: u64, a: &[u8; 32], b: &[u8; 32]) -> Key {
    // Toy KDF: mix label, cid and both randoms through the deterministic
    // generator (see crate docs for the substitution rationale).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in label.iter().chain(a).chain(b) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= connection_id;
    let mut rng = DetRng::new(h);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    key
}

/// Events produced by the handshake state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeEvent {
    /// Bytes to send on the crypto stream.
    Send(Bytes),
    /// Handshake complete; session keys are available.
    Complete(SessionKeys),
}

/// Client side of the 1-RTT handshake.
#[derive(Debug)]
pub struct ClientHandshake {
    connection_id: u64,
    client_random: [u8; 32],
    /// Version proposed in the next CHLO.
    version: u32,
    chlo_sent: bool,
    keys: Option<SessionKeys>,
    /// Number of version-negotiation rounds taken (0 on the happy path).
    negotiation_rounds: u32,
}

impl ClientHandshake {
    /// Creates a client handshake for `connection_id`, drawing the key
    /// share from `rng` and proposing [`SUPPORTED_VERSION`].
    pub fn new(connection_id: u64, rng: &mut DetRng) -> ClientHandshake {
        Self::with_version(connection_id, rng, SUPPORTED_VERSION)
    }

    /// Like [`ClientHandshake::new`] but proposing a specific version
    /// (tests use an unsupported one to exercise negotiation).
    pub fn with_version(connection_id: u64, rng: &mut DetRng, version: u32) -> ClientHandshake {
        let mut client_random = [0u8; 32];
        rng.fill_bytes(&mut client_random);
        ClientHandshake {
            connection_id,
            client_random,
            version,
            chlo_sent: false,
            keys: None,
            negotiation_rounds: 0,
        }
    }

    /// Pulls the next action: the CHLO on first call (and again after a
    /// version-negotiation round), then nothing until the SHLO arrives.
    pub fn poll(&mut self) -> Option<HandshakeEvent> {
        if !self.chlo_sent {
            self.chlo_sent = true;
            let chlo = HandshakeMessage::ClientHello {
                connection_id: self.connection_id,
                version: self.version,
                client_random: self.client_random,
            };
            return Some(HandshakeEvent::Send(chlo.encode()));
        }
        None
    }

    /// Feeds crypto-stream bytes received from the server. Returns the
    /// completion event when the SHLO has been processed, or the next
    /// CHLO after a version-negotiation round.
    pub fn on_crypto_data(&mut self, mut data: &[u8]) -> Option<HandshakeEvent> {
        while let Some(msg) = HandshakeMessage::decode(&mut data) {
            match msg {
                HandshakeMessage::ServerHello {
                    connection_id,
                    version: _,
                    server_random,
                } => {
                    if connection_id != self.connection_id || self.keys.is_some() {
                        continue;
                    }
                    let keys =
                        session_keys(self.connection_id, &self.client_random, &server_random);
                    self.keys = Some(keys);
                    return Some(HandshakeEvent::Complete(keys));
                }
                HandshakeMessage::VersionNegotiation {
                    connection_id,
                    supported,
                } => {
                    if connection_id != self.connection_id
                        || self.keys.is_some()
                        || supported.contains(&self.version)
                    {
                        continue; // stale, spurious, or nothing to change
                    }
                    if supported.contains(&SUPPORTED_VERSION) {
                        // Retry with the mutually supported version.
                        self.version = SUPPORTED_VERSION;
                        self.negotiation_rounds += 1;
                        self.chlo_sent = false;
                        return self.poll();
                    }
                }
                HandshakeMessage::ClientHello { .. } => {}
            }
        }
        None
    }

    /// Session keys, once complete.
    pub fn keys(&self) -> Option<SessionKeys> {
        self.keys
    }

    /// True once the SHLO has been processed.
    pub fn is_complete(&self) -> bool {
        self.keys.is_some()
    }

    /// Version-negotiation rounds taken (0 on the happy path).
    pub fn negotiation_rounds(&self) -> u32 {
        self.negotiation_rounds
    }
}

/// Server side of the 1-RTT handshake.
#[derive(Debug)]
pub struct ServerHandshake {
    server_random: [u8; 32],
    /// SHLO queued for transmission after a CHLO arrived.
    pending_shlo: Option<Bytes>,
    keys: Option<SessionKeys>,
}

impl ServerHandshake {
    /// Creates a server handshake, drawing the key share from `rng`.
    pub fn new(rng: &mut DetRng) -> ServerHandshake {
        let mut server_random = [0u8; 32];
        rng.fill_bytes(&mut server_random);
        ServerHandshake {
            server_random,
            pending_shlo: None,
            keys: None,
        }
    }

    /// Feeds crypto-stream bytes received from the client. On a CHLO with
    /// a supported version the server derives keys immediately (it can
    /// send 1-RTT data right after the SHLO) and returns the completion
    /// event; on an unsupported version it queues a version-negotiation
    /// response instead.
    pub fn on_crypto_data(&mut self, mut data: &[u8]) -> Option<HandshakeEvent> {
        while let Some(msg) = HandshakeMessage::decode(&mut data) {
            if let HandshakeMessage::ClientHello {
                connection_id,
                version,
                client_random,
            } = msg
            {
                if self.keys.is_some() {
                    continue; // duplicate CHLO (retransmission)
                }
                if version != SUPPORTED_VERSION {
                    let vneg = HandshakeMessage::VersionNegotiation {
                        connection_id,
                        supported: vec![SUPPORTED_VERSION],
                    };
                    self.pending_shlo = Some(vneg.encode());
                    continue;
                }
                let keys = session_keys(connection_id, &client_random, &self.server_random);
                self.keys = Some(keys);
                let shlo = HandshakeMessage::ServerHello {
                    connection_id,
                    version,
                    server_random: self.server_random,
                };
                self.pending_shlo = Some(shlo.encode());
                return Some(HandshakeEvent::Complete(keys));
            }
        }
        None
    }

    /// Pulls the next action: the SHLO, once a CHLO has been processed.
    pub fn poll(&mut self) -> Option<HandshakeEvent> {
        self.pending_shlo.take().map(HandshakeEvent::Send)
    }

    /// Session keys, once complete.
    pub fn keys(&self) -> Option<SessionKeys> {
        self.keys
    }

    /// True once a CHLO has been processed.
    pub fn is_complete(&self) -> bool {
        self.keys.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_round_trip() {
        let chlo = HandshakeMessage::ClientHello {
            connection_id: 42,
            version: SUPPORTED_VERSION,
            client_random: [7; 32],
        };
        let bytes = chlo.encode();
        assert_eq!(bytes.len(), HandshakeMessage::WIRE_SIZE);
        let mut read = &bytes[..];
        assert_eq!(HandshakeMessage::decode(&mut read), Some(chlo));
    }

    #[test]
    fn full_handshake_agrees_on_keys() {
        let mut rng = DetRng::new(1);
        let mut client = ClientHandshake::new(99, &mut rng);
        let mut server = ServerHandshake::new(&mut rng);

        // Client sends CHLO.
        let Some(HandshakeEvent::Send(chlo)) = client.poll() else {
            panic!("client should send CHLO first");
        };
        assert!(client.poll().is_none(), "only one CHLO");
        assert!(!client.is_complete());

        // Server processes CHLO, completes, and queues SHLO.
        let Some(HandshakeEvent::Complete(server_keys)) = server.on_crypto_data(&chlo) else {
            panic!("server should complete on CHLO");
        };
        let Some(HandshakeEvent::Send(shlo)) = server.poll() else {
            panic!("server should send SHLO");
        };
        assert!(server.poll().is_none());

        // Client processes SHLO and completes with the same keys.
        let Some(HandshakeEvent::Complete(client_keys)) = client.on_crypto_data(&shlo) else {
            panic!("client should complete on SHLO");
        };
        assert_eq!(client_keys, server_keys);
        assert_ne!(client_keys.client_to_server, client_keys.server_to_client);
    }

    #[test]
    fn duplicate_chlo_ignored() {
        let mut rng = DetRng::new(2);
        let mut client = ClientHandshake::new(5, &mut rng);
        let mut server = ServerHandshake::new(&mut rng);
        let Some(HandshakeEvent::Send(chlo)) = client.poll() else {
            panic!()
        };
        assert!(server.on_crypto_data(&chlo).is_some());
        let _ = server.poll();
        // Retransmitted CHLO: no new completion, no second SHLO.
        assert!(server.on_crypto_data(&chlo).is_none());
        assert!(server.poll().is_none());
    }

    #[test]
    fn shlo_for_wrong_connection_ignored() {
        let mut rng = DetRng::new(3);
        let mut client = ClientHandshake::new(10, &mut rng);
        let _ = client.poll();
        let bogus = HandshakeMessage::ServerHello {
            connection_id: 11,
            version: SUPPORTED_VERSION,
            server_random: [1; 32],
        }
        .encode();
        assert!(client.on_crypto_data(&bogus).is_none());
        assert!(!client.is_complete());
    }

    #[test]
    fn initial_key_is_cid_dependent() {
        assert_eq!(initial_key(1), initial_key(1));
        assert_ne!(initial_key(1), initial_key(2));
    }

    #[test]
    fn debug_does_not_print_keys() {
        let keys = session_keys(1, &[0xAB; 32], &[0xCD; 32]);
        let shown = format!("{keys:?} {:?}", HandshakeEvent::Complete(keys));
        assert_eq!(shown, "SessionKeys { .. } Complete(SessionKeys { .. })");
    }

    #[test]
    fn different_randoms_different_keys() {
        let a = session_keys(1, &[1; 32], &[2; 32]);
        let b = session_keys(1, &[1; 32], &[3; 32]);
        assert_ne!(a.client_to_server, b.client_to_server);
    }

    #[test]
    fn garbage_crypto_data_never_panics_the_machines() {
        let mut rng = DetRng::new(77);
        let mut client = ClientHandshake::new(5, &mut rng);
        let mut server = ServerHandshake::new(&mut rng);
        let _ = client.poll();
        let mut junk_rng = DetRng::new(78);
        for len in [0usize, 1, 40, 41, 82, 123] {
            let mut junk = vec![0u8; len];
            junk_rng.fill_bytes(&mut junk);
            let _ = client.on_crypto_data(&junk);
            let _ = server.on_crypto_data(&junk);
        }
        assert!(!client.is_complete(), "junk must not complete a handshake");
    }

    #[test]
    fn version_negotiation_round_trip() {
        let vneg = HandshakeMessage::VersionNegotiation {
            connection_id: 9,
            supported: vec![1, 7, 42],
        };
        let bytes = vneg.encode();
        let mut read = &bytes[..];
        assert_eq!(HandshakeMessage::decode(&mut read), Some(vneg));
    }

    #[test]
    fn unsupported_version_negotiates_then_establishes() {
        let mut rng = DetRng::new(4);
        // Client proposes a future version the server does not speak.
        let mut client = ClientHandshake::with_version(77, &mut rng, 99);
        let mut server = ServerHandshake::new(&mut rng);
        let Some(HandshakeEvent::Send(chlo_v99)) = client.poll() else {
            panic!()
        };
        // Server answers with version negotiation, not an SHLO.
        assert!(server.on_crypto_data(&chlo_v99).is_none());
        assert!(!server.is_complete());
        let Some(HandshakeEvent::Send(vneg)) = server.poll() else {
            panic!("version negotiation expected")
        };
        // Client retries with the supported version (one extra RTT).
        let Some(HandshakeEvent::Send(chlo_v1)) = client.on_crypto_data(&vneg) else {
            panic!("client should re-CHLO")
        };
        assert_eq!(client.negotiation_rounds(), 1);
        let Some(HandshakeEvent::Complete(sk)) = server.on_crypto_data(&chlo_v1) else {
            panic!("server completes on supported CHLO")
        };
        let Some(HandshakeEvent::Send(shlo)) = server.poll() else {
            panic!()
        };
        let Some(HandshakeEvent::Complete(ck)) = client.on_crypto_data(&shlo) else {
            panic!()
        };
        assert_eq!(sk, ck);
    }

    #[test]
    fn partial_message_waits_for_more() {
        let chlo = HandshakeMessage::ClientHello {
            connection_id: 1,
            version: SUPPORTED_VERSION,
            client_random: [9; 32],
        }
        .encode();
        let mut partial = &chlo[..10];
        assert_eq!(HandshakeMessage::decode(&mut partial), None);
    }
}
