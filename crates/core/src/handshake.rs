//! The handshake and the packet protection it keys. The handshake runs
//! on the initial path only and keys every later path (paper §3), so
//! which context protects a packet, and whether the handshake is done,
//! are connection-wide answers, given here once. Completion is not
//! stored: it is the presence of the 1-RTT contexts, built the moment
//! the machine yields the session keys.
//!
//! This module is inside the no-panic lint scope (`cargo xtask lint`).

use mpquic_crypto::handshake::initial_key;
use mpquic_crypto::{nonce_for, Aead, ClientHandshake, HandshakeEvent, NonceMode, ServerHandshake};
use mpquic_util::DetRng;
use mpquic_wire::{Frame, PacketType, PathId};
use std::collections::VecDeque;

use crate::config::Role;

enum Machine {
    Client(ClientHandshake),
    Server(ServerHandshake),
}

/// The role's handshake machine, its crypto frames awaiting a Handshake
/// packet and the packet-protection contexts.
pub(crate) struct Handshake {
    machine: Machine,
    queue: VecDeque<Frame>,
    /// 1-RTT contexts `(send, receive)`, keyed once, not per packet.
    one_rtt: Option<(Aead, Aead)>,
    /// The Handshake-packet context and the CID its key derives from.
    initial: Option<(u64, Aead)>,
}

impl Handshake {
    /// The handshake of `role`; a client's CHLO for `cid` is queued at
    /// once.
    pub(crate) fn new(role: Role, cid: u64, rng: &mut DetRng, version: u32) -> Handshake {
        let (machine, chlo) = match role {
            Role::Client => {
                let mut hs = ClientHandshake::with_version(cid, rng, version);
                let chlo = hs.poll();
                (Machine::Client(hs), chlo)
            }
            Role::Server => (Machine::Server(ServerHandshake::new(rng)), None),
        };
        let mut handshake = Handshake {
            machine,
            queue: VecDeque::new(),
            one_rtt: None,
            initial: None,
        };
        handshake.on_event(chlo);
        handshake
    }

    /// True once the session keys exist.
    pub(crate) fn is_complete(&self) -> bool {
        self.one_rtt.is_some()
    }

    /// Feeds received crypto-stream bytes to the machine and queues what
    /// it answers: a client's retried CHLO comes as the event itself, a
    /// server's SHLO or version negotiation from its `poll`. True when
    /// this call completed the handshake.
    pub(crate) fn on_crypto(&mut self, data: &[u8]) -> bool {
        let (event, answer) = match &mut self.machine {
            Machine::Client(hs) => (hs.on_crypto_data(data), None),
            Machine::Server(hs) => (hs.on_crypto_data(data), hs.poll()),
        };
        self.on_event(answer);
        self.on_event(event)
    }

    /// Queues the bytes a machine sends, or builds the 1-RTT contexts
    /// from its keys; true for the keys.
    fn on_event(&mut self, event: Option<HandshakeEvent>) -> bool {
        match event {
            Some(HandshakeEvent::Send(data)) => {
                self.queue.push_back(Frame::Crypto { offset: 0, data })
            }
            Some(HandshakeEvent::Complete(keys)) => {
                let (send, recv) = match self.machine {
                    Machine::Client(_) => (keys.client_to_server, keys.server_to_client),
                    Machine::Server(_) => (keys.server_to_client, keys.client_to_server),
                };
                self.one_rtt = Some((Aead::new(send), Aead::new(recv)));
                return true;
            }
            None => {}
        }
        false
    }

    /// Crypto frames awaiting a Handshake packet.
    pub(crate) fn queue(&mut self) -> &mut VecDeque<Frame> {
        &mut self.queue
    }

    /// The packet type the newest keys protect.
    pub(crate) fn keyed_packet_type(&self) -> PacketType {
        if self.is_complete() {
            PacketType::OneRtt
        } else {
            PacketType::Handshake
        }
    }

    /// The context that opens a received `packet_type` packet sent to
    /// `cid`, the connection's own CID being `own`; `None` while its key
    /// does not exist (1-RTT data racing the SHLO).
    pub(crate) fn opener(&mut self, packet_type: PacketType, cid: u64, own: u64) -> Option<Aead> {
        match packet_type {
            PacketType::Handshake => Some(self.initial(cid, own)),
            PacketType::OneRtt => self.one_rtt.as_ref().map(|(_, recv)| recv.clone()),
        }
    }

    /// The context that seals a `packet_type` packet sent under the own
    /// CID `own`; `None` while its key does not exist.
    pub(crate) fn sealer(&mut self, packet_type: PacketType, own: u64) -> Option<Aead> {
        match packet_type {
            PacketType::Handshake => Some(self.initial(own, own)),
            PacketType::OneRtt => self.one_rtt.as_ref().map(|(send, _)| send.clone()),
        }
    }

    /// The Handshake-packet context for `cid`, kept for the own CID only:
    /// a fresh server's first flight and stragglers keyed to a
    /// rotated-away CID derive theirs on the spot, so nothing is stored on
    /// the word of an unauthenticated datagram.
    fn initial(&mut self, cid: u64, own: u64) -> Aead {
        match &self.initial {
            Some((cached, aead)) if *cached == cid => aead.clone(),
            _ => {
                let aead = Aead::new(initial_key(cid));
                if cid == own {
                    self.initial = Some((cid, aead.clone()));
                }
                aead
            }
        }
    }
}

/// The nonce of packet `pn` on `path`: its number mixed with the Path
/// ID, so no two paths' packets share one (paper §3).
pub(crate) fn nonce(path: PathId, pn: u64) -> [u8; 12] {
    nonce_for(NonceMode::PathIdMixed, path.0, pn)
}

#[cfg(test)]
impl Handshake {
    /// The machine's session keys, for tests that forge datagrams.
    pub(crate) fn keys(&self) -> Option<mpquic_crypto::SessionKeys> {
        match &self.machine {
            Machine::Client(hs) => hs.keys(),
            Machine::Server(hs) => hs.keys(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_crypto::handshake::SUPPORTED_VERSION;

    /// Carries every queued crypto frame from `from` to `to`.
    fn deliver(from: &mut Handshake, to: &mut Handshake) -> bool {
        let mut completed = false;
        while let Some(Frame::Crypto { data, .. }) = from.queue().pop_front() {
            completed |= to.on_crypto(&data);
        }
        completed
    }

    #[test]
    fn completion_is_the_presence_of_the_one_rtt_contexts() {
        let mut rng = DetRng::new(1);
        let mut client = Handshake::new(Role::Client, 7, &mut rng, SUPPORTED_VERSION);
        let mut server = Handshake::new(Role::Server, 0, &mut rng, SUPPORTED_VERSION);
        assert_eq!(client.queue().len(), 1, "the CHLO waits from the start");
        assert!(client.sealer(PacketType::OneRtt, 7).is_none());
        assert_eq!(client.keyed_packet_type(), PacketType::Handshake);
        assert!(deliver(&mut client, &mut server));
        assert!(server.is_complete() && !client.is_complete());
        assert!(deliver(&mut server, &mut client));
        assert!(client.is_complete());
        assert_eq!(client.keyed_packet_type(), PacketType::OneRtt);
        assert_eq!(client.keys(), server.keys());
        // Each side's sealer is the other's opener, in both types; the
        // 1-RTT contexts are directional, so a side cannot open its own.
        let nonce = nonce(PathId(0), 3);
        for packet_type in [PacketType::Handshake, PacketType::OneRtt] {
            let sealed = client
                .sealer(packet_type, 7)
                .unwrap()
                .seal(&nonce, b"h", b"data");
            let open = server.opener(packet_type, 7, 7).unwrap();
            assert_eq!(open.open(&nonce, b"h", &sealed).unwrap(), b"data");
            let own = client.opener(packet_type, 7, 7).unwrap();
            let directional = packet_type == PacketType::OneRtt;
            assert_eq!(own.open(&nonce, b"h", &sealed).is_err(), directional);
        }
    }

    #[test]
    fn only_the_own_cids_handshake_context_is_kept() {
        let mut server = Handshake::new(Role::Server, 0, &mut DetRng::new(2), SUPPORTED_VERSION);
        let _ = server.opener(PacketType::Handshake, 9, 0);
        assert!(server.initial.is_none(), "an unadopted CID keeps nothing");
        let _ = server.opener(PacketType::Handshake, 9, 9);
        assert_eq!(server.initial.as_ref().map(|(cid, _)| *cid), Some(9));
        let _ = server.opener(PacketType::Handshake, 4, 9);
        assert_eq!(server.initial.as_ref().map(|(cid, _)| *cid), Some(9));
    }

    #[test]
    fn debug_output_of_the_contexts_carries_no_key_material() {
        let mut rng = DetRng::new(4);
        let mut client = Handshake::new(Role::Client, 7, &mut rng, SUPPORTED_VERSION);
        let mut server = Handshake::new(Role::Server, 0, &mut rng, SUPPORTED_VERSION);
        deliver(&mut client, &mut server);
        deliver(&mut server, &mut client);
        assert_eq!(format!("{:?}", client.keys()), "Some(SessionKeys { .. })");
        assert_eq!(
            format!("{:?}", client.one_rtt),
            "Some((Aead { key: .. }, Aead { key: .. }))"
        );
    }
}
