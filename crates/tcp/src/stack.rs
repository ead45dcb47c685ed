//! The (MP)TCP stack: meta-level sequencing, the Linux-style scheduler,
//! opportunistic retransmission and penalization, the coupled receive
//! window, and the TLS 1.2 handshake latency model.
//!
//! One [`TcpStack`] is one TCP *connection* — plain TCP when
//! `config.multipath` is false, Multipath TCP otherwise. Data written by
//! the application forms a single meta-level byte stream (dsn space);
//! subflows carry chunks of it with DSS mappings.
//!
//! The pieces the paper's analysis hinges on:
//!
//! * **3-way handshake per subflow** — a new subflow carries no data for
//!   a full RTT (vs MPQUIC's data-in-first-packet);
//! * **TLS 1.2 over TCP = 3 RTTs before the request** (vs QUIC's 1);
//! * **coupled receive window** — out-of-order meta data occupies the
//!   shared 16 MB buffer, so a slow path can stall a fast one
//!   (receive-buffer head-of-line blocking);
//! * **penalization + opportunistic retransmission (ORP)** — when the
//!   shared window fills, the blocking data is reinjected on the faster
//!   subflow and the slow subflow's window is halved [paper §4.1];
//! * **RTO ⇒ potentially-failed subflow + reinjection** on another
//!   subflow.

use bytes::Bytes;
use mpquic_cc::CcAlgorithm;
use mpquic_util::{Datagram, Endpoint, RangeSet, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

use crate::rtt::DEFAULT_INITIAL_RTT;
use crate::segment::Segment;
use crate::subflow::{Subflow, SubflowState};

/// Stack configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Multipath TCP when true; plain TCP otherwise.
    pub multipath: bool,
    /// Congestion controller per subflow (the paper: CUBIC for TCP,
    /// OLIA for MPTCP).
    pub cc: CcAlgorithm,
    /// Maximum payload bytes per segment.
    pub mss: usize,
    /// Shared (meta-level) receive window — the paper sets 16 MB.
    pub recv_window: u64,
    /// RTT assumed before samples.
    pub initial_rtt: Duration,
    /// Model the TLS 1.2 handshake (2 RTTs after TCP's 1.5).
    pub tls: bool,
    /// Enable penalization + opportunistic retransmission.
    pub orp: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            multipath: true,
            cc: CcAlgorithm::Olia,
            mss: 1330,
            recv_window: 16 << 20,
            initial_rtt: DEFAULT_INITIAL_RTT,
            tls: true,
            orp: true,
        }
    }
}

impl TcpConfig {
    /// The paper's single-path TCP baseline: CUBIC, HTTPS over TLS 1.2.
    pub fn single_path() -> TcpConfig {
        TcpConfig {
            multipath: false,
            cc: CcAlgorithm::Cubic,
            ..TcpConfig::default()
        }
    }

    /// The paper's MPTCP v0.91 stand-in (also `Default`).
    pub fn multipath() -> TcpConfig {
        TcpConfig::default()
    }
}

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Active opener.
    Client,
    /// Passive opener.
    Server,
}

/// TLS 1.2 full-handshake message sizes (bytes on the stream).
mod tls_sizes {
    /// ClientHello.
    pub const CLIENT_HELLO: u64 = 300;
    /// ServerHello + Certificate + ServerHelloDone.
    pub const SERVER_HELLO: u64 = 3500;
    /// ClientKeyExchange + ChangeCipherSpec + Finished.
    pub const CLIENT_FINISHED: u64 = 400;
    /// ChangeCipherSpec + Finished.
    pub const SERVER_FINISHED: u64 = 100;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsState {
    /// Waiting for the TCP handshake.
    Idle,
    /// Client: CH sent, reading SH. Server: reading CH.
    Hello,
    /// Client: CKE sent, reading FIN. Server: SH sent, reading CKE.
    Exchange,
    /// Application data may flow.
    Done,
}

/// Aggregated statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpStats {
    /// Segments sent across subflows.
    pub segments_sent: u64,
    /// Segments received.
    pub segments_received: u64,
    /// Same-subflow retransmissions.
    pub retransmissions: u64,
    /// RTO events.
    pub rtos: u64,
    /// Meta-level reinjections on another subflow.
    pub reinjections: u64,
    /// ORP penalizations applied.
    pub penalizations: u64,
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_received: u64,
}

/// One (MP)TCP connection endpoint.
pub struct TcpStack {
    role: Role,
    config: TcpConfig,
    subflows: Vec<Subflow>,
    local_addrs: Vec<SocketAddr>,
    initial_local_index: usize,
    remote_addrs: BTreeMap<u8, SocketAddr>,

    // --- meta send state ---
    /// Send buffer holding `[snd_base, snd_base + buf.len())` of the dsn
    /// space (kept until meta-acked, for reinjection).
    snd_buf: VecDeque<u8>,
    snd_base: u64,
    snd_nxt: u64,
    /// dsn of the FIN sentinel byte, once `finish()` was called.
    fin_dsn: Option<u64>,
    /// Highest cumulative data_ack from the peer.
    data_ack_remote: u64,
    /// Highest `data_ack + window` seen (meta send limit).
    send_limit: u64,
    /// Meta ranges queued for reinjection on another subflow.
    reinject_queue: VecDeque<(u64, u64)>,
    /// Last ORP evaluation (rate-limited: the check walks subflow state).
    last_orp_check: Option<SimTime>,
    /// dsns already reinjected (loop protection).
    reinjected: RangeSet,

    // --- meta receive state ---
    rcv_ranges: RangeSet,
    rcv_chunks: BTreeMap<u64, Bytes>,
    rcv_nxt: u64,
    meta_consumed: u64,
    fin_dsn_remote: Option<u64>,

    // --- TLS / app layer ---
    tls: TlsState,
    /// Bytes of the current inbound TLS message still unread.
    tls_rx_remaining: u64,
    /// Application data written before the handshake finished.
    app_tx_pending: VecDeque<Bytes>,
    app_fin_requested: bool,

    stats: TcpStats,
    /// Established-time bookkeeping for tests.
    established_at: Option<SimTime>,
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack")
            .field("role", &self.role)
            .field("subflows", &self.subflows.len())
            .field("tls", &self.tls)
            .field("snd_nxt", &self.snd_nxt)
            .field("rcv_nxt", &self.rcv_nxt)
            .finish()
    }
}

impl TcpStack {
    /// Creates a client that connects from
    /// `local_addrs[initial_local_index]` to `remote_addr`. Additional
    /// subflows join automatically (multipath) when the server advertises
    /// addresses via ADD_ADDR.
    pub fn client(
        config: TcpConfig,
        local_addrs: Vec<SocketAddr>,
        initial_local_index: usize,
        remote_addr: SocketAddr,
    ) -> TcpStack {
        assert!(initial_local_index < local_addrs.len());
        let mut stack = TcpStack::new_common(Role::Client, config, local_addrs);
        stack.initial_local_index = initial_local_index;
        let local = stack.local_addrs[initial_local_index];
        let mut sf = stack.make_subflow(0, local, remote_addr);
        sf.connect(None);
        stack.subflows.push(sf);
        stack
    }

    /// Creates a passive server listening on `local_addrs`.
    pub fn server(config: TcpConfig, local_addrs: Vec<SocketAddr>) -> TcpStack {
        TcpStack::new_common(Role::Server, config, local_addrs)
    }

    fn new_common(role: Role, config: TcpConfig, local_addrs: Vec<SocketAddr>) -> TcpStack {
        assert!(!local_addrs.is_empty());
        TcpStack {
            role,
            config,
            subflows: Vec::new(),
            local_addrs,
            initial_local_index: 0,
            remote_addrs: BTreeMap::new(),
            snd_buf: VecDeque::new(),
            snd_base: 0,
            snd_nxt: 0,
            fin_dsn: None,
            data_ack_remote: 0,
            send_limit: 0,
            reinject_queue: VecDeque::new(),
            last_orp_check: None,
            reinjected: RangeSet::new(),
            rcv_ranges: RangeSet::new(),
            rcv_chunks: BTreeMap::new(),
            rcv_nxt: 0,
            meta_consumed: 0,
            fin_dsn_remote: None,
            tls: TlsState::Idle,
            tls_rx_remaining: 0,
            app_tx_pending: VecDeque::new(),
            app_fin_requested: false,
            stats: TcpStats::default(),
            established_at: None,
        }
    }

    fn make_subflow(&self, index: usize, local: SocketAddr, remote: SocketAddr) -> Subflow {
        Subflow::new(
            index,
            local,
            remote,
            self.config.cc.build(self.config.mss as u64),
            self.config.initial_rtt,
        )
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// True once the application may exchange data (TCP established and,
    /// when enabled, the TLS handshake finished).
    pub fn is_established(&self) -> bool {
        self.tls == TlsState::Done
    }

    /// Time at which the stack became application-ready.
    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    /// Appends application data to the outgoing stream.
    pub fn write(&mut self, data: Bytes) {
        if self.is_established() {
            self.meta_write(&data);
        } else {
            self.app_tx_pending.push_back(data);
        }
    }

    /// Marks the end of the outgoing stream.
    pub fn finish(&mut self) {
        if self.is_established() && self.app_tx_pending.is_empty() {
            self.append_fin();
        } else {
            self.app_fin_requested = true;
        }
    }

    fn append_fin(&mut self) {
        if self.fin_dsn.is_none() {
            // The DATA_FIN occupies one meta byte (a sentinel the reader
            // strips), so it is acknowledgeable like real MPTCP's.
            self.snd_buf.push_back(0);
            self.fin_dsn = Some(self.snd_base + self.snd_buf.len() as u64 - 1);
        }
    }

    fn meta_write(&mut self, data: &[u8]) {
        debug_assert!(self.fin_dsn.is_none(), "write after finish");
        self.snd_buf.extend(data.iter().copied());
    }

    fn flush_pending_app_data(&mut self) {
        while let Some(chunk) = self.app_tx_pending.pop_front() {
            self.meta_write(&chunk);
        }
        if self.app_fin_requested {
            self.append_fin();
        }
    }

    /// Reads up to `max` bytes of in-order application data.
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        if self.tls != TlsState::Done {
            return None;
        }
        self.read_meta(max, true)
    }

    /// Reads from the meta stream. When `app` is true, reading stops at
    /// the FIN sentinel (not delivered to the application).
    fn read_meta(&mut self, max: usize, app: bool) -> Option<Bytes> {
        let (&start, chunk) = self.rcv_chunks.iter().next()?;
        if start > self.meta_consumed {
            return None;
        }
        debug_assert_eq!(start, self.meta_consumed);
        let mut limit = chunk.len().min(max);
        if app {
            if let Some(fin) = self.fin_dsn_remote {
                if start >= fin {
                    return None; // only the sentinel remains
                }
                limit = limit.min((fin - start) as usize);
            }
        }
        if limit == 0 {
            return None;
        }
        let mut chunk = self.rcv_chunks.remove(&start).expect("peeked");
        let out = chunk.split_to(limit);
        if !chunk.is_empty() {
            self.rcv_chunks.insert(start + limit as u64, chunk);
        }
        self.meta_consumed += limit as u64;
        Some(out)
    }

    /// True once the peer's FIN was received and all application data
    /// consumed.
    pub fn recv_finished(&self) -> bool {
        match self.fin_dsn_remote {
            Some(fin) => self.meta_consumed >= fin && self.rcv_nxt > fin,
            None => false,
        }
    }

    /// True once everything written (including the FIN) was data-acked.
    pub fn send_complete(&self) -> bool {
        self.fin_dsn.is_some_and(|fin| self.data_ack_remote > fin)
    }

    /// Statistics (aggregated over subflows).
    pub fn stats(&self) -> TcpStats {
        let mut s = self.stats;
        for sf in &self.subflows {
            s.segments_sent += sf.stats.segments_sent;
            s.segments_received += sf.stats.segments_received;
            s.retransmissions += sf.stats.retransmissions;
            s.rtos += sf.stats.rtos;
            s.bytes_sent += sf.stats.bytes_sent;
            s.bytes_received += sf.stats.bytes_received;
        }
        s
    }

    /// Number of subflows (established or not).
    pub fn subflow_count(&self) -> usize {
        self.subflows.len()
    }

    /// Introspection for tests and instrumentation.
    pub fn subflow(&self, index: usize) -> Option<&Subflow> {
        self.subflows.get(index)
    }

    // ------------------------------------------------------------------
    // TLS 1.2 model
    // ------------------------------------------------------------------

    fn on_transport_established(&mut self, now: SimTime) {
        if self.tls != TlsState::Idle {
            return;
        }
        if !self.config.tls {
            self.tls = TlsState::Done;
            self.established_at = Some(now);
            self.flush_pending_app_data();
            return;
        }
        match self.role {
            Role::Client => {
                self.meta_write_raw(tls_sizes::CLIENT_HELLO);
                self.tls = TlsState::Hello;
                self.tls_rx_remaining = tls_sizes::SERVER_HELLO;
            }
            Role::Server => {
                self.tls = TlsState::Hello;
                self.tls_rx_remaining = tls_sizes::CLIENT_HELLO;
            }
        }
    }

    /// Writes `len` handshake filler bytes to the meta stream.
    fn meta_write_raw(&mut self, len: u64) {
        for _ in 0..len {
            self.snd_buf.push_back(0x16); // TLS handshake content type
        }
    }

    /// Consumes inbound TLS handshake bytes and advances the state
    /// machine.
    fn process_tls(&mut self, now: SimTime) {
        loop {
            if self.tls == TlsState::Done || self.tls == TlsState::Idle {
                return;
            }
            if self.tls_rx_remaining > 0 {
                match self.read_meta(self.tls_rx_remaining as usize, false) {
                    Some(chunk) => {
                        self.tls_rx_remaining -= chunk.len() as u64;
                    }
                    None => return, // need more bytes
                }
                continue;
            }
            // A full message was consumed: transition.
            match (self.role, self.tls) {
                (Role::Client, TlsState::Hello) => {
                    // SH read: send CKE+Finished, await server Finished.
                    self.meta_write_raw(tls_sizes::CLIENT_FINISHED);
                    self.tls = TlsState::Exchange;
                    self.tls_rx_remaining = tls_sizes::SERVER_FINISHED;
                }
                (Role::Client, TlsState::Exchange) => {
                    self.tls = TlsState::Done;
                    self.established_at = Some(now);
                    self.flush_pending_app_data();
                }
                (Role::Server, TlsState::Hello) => {
                    // CH read: send SH chain, await CKE+Finished.
                    self.meta_write_raw(tls_sizes::SERVER_HELLO);
                    self.tls = TlsState::Exchange;
                    self.tls_rx_remaining = tls_sizes::CLIENT_FINISHED;
                }
                (Role::Server, TlsState::Exchange) => {
                    // CKE read: send Finished; app data may now flow.
                    self.meta_write_raw(tls_sizes::SERVER_FINISHED);
                    self.tls = TlsState::Done;
                    self.established_at = Some(now);
                    self.flush_pending_app_data();
                }
                _ => return,
            }
        }
    }

    // ------------------------------------------------------------------
    // Meta receive
    // ------------------------------------------------------------------

    fn advertised_window(&self) -> u64 {
        let buffered: u64 = self.rcv_chunks.values().map(|c| c.len() as u64).sum();
        self.config.recv_window.saturating_sub(buffered)
    }

    fn meta_recv(&mut self, dsn: u64, data: &Bytes, data_fin: bool) {
        if data_fin {
            let fin = dsn + data.len() as u64 - u64::from(!data.is_empty());
            // The sentinel is the last byte of the carrying segment.
            let fin = if data.is_empty() { dsn } else { fin };
            self.fin_dsn_remote = Some(fin);
        }
        if data.is_empty() {
            return;
        }
        let end = dsn + data.len() as u64 - 1;
        // Insert only new sub-ranges (duplicates come from reinjection).
        let mut fresh = RangeSet::new();
        fresh.insert_range(dsn, end);
        for have in self.rcv_ranges.iter() {
            fresh.remove_range(*have.start(), *have.end());
        }
        let new_ranges: Vec<(u64, u64)> = fresh.iter().map(|r| (*r.start(), *r.end())).collect();
        for (start, stop) in new_ranges {
            let rel = (start - dsn) as usize;
            let len = (stop - start + 1) as usize;
            self.rcv_chunks.insert(start, data.slice(rel..rel + len));
            self.rcv_ranges.insert_range(start, stop);
        }
        while let Some(range) = self
            .rcv_ranges
            .iter()
            .find(|r| *r.start() <= self.rcv_nxt && *r.end() >= self.rcv_nxt)
        {
            self.rcv_nxt = *range.end() + 1;
        }
    }

    // ------------------------------------------------------------------
    // Ingress
    // ------------------------------------------------------------------

    /// Processes one incoming datagram.
    pub fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        let Some(segment) = Segment::decode(payload) else {
            return;
        };
        self.stats.bytes_received += payload.len() as u64;
        // Locate (or passively create) the subflow.
        let idx = match self
            .subflows
            .iter()
            .position(|sf| sf.local == local && sf.remote == remote)
        {
            Some(i) => i,
            None => {
                if !segment.is_syn() || self.role != Role::Server {
                    return;
                }
                if !self.subflows.is_empty() && segment.mptcp.mp_join.is_none() {
                    return; // second MP_CAPABLE SYN: not a valid join
                }
                let index = self.subflows.len();
                let mut sf = self.make_subflow(index, local, remote);
                if index == 0 && self.config.multipath {
                    // Advertise our addresses on the SYN-ACK and the next
                    // few segments (TCP options are not reliable).
                    sf.add_addrs_to_send = self
                        .local_addrs
                        .iter()
                        .enumerate()
                        .map(|(i, &a)| (i as u8, a))
                        .collect();
                    sf.add_addr_budget = 12;
                }
                self.subflows.push(sf);
                index
            }
        };
        let snapshots: Vec<_> = self
            .subflows
            .iter()
            .filter(|sf| sf.state == SubflowState::Established)
            .map(|sf| sf.snapshot())
            .collect();
        let est_index = self
            .subflows
            .iter()
            .take(idx)
            .filter(|sf| sf.state == SubflowState::Established)
            .count();
        let sf = &mut self.subflows[idx];
        sf.stats.bytes_received += payload.len() as u64;
        let outcome = sf.on_segment(
            now,
            &segment,
            &snapshots,
            est_index.min(snapshots.len().saturating_sub(1)),
            self.config.multipath,
        );

        if outcome.established && idx == 0 {
            self.on_transport_established(now);
        }
        if let Some(ack) = outcome.data_ack {
            if ack > self.data_ack_remote {
                self.data_ack_remote = ack;
                let drop = (ack - self.snd_base).min(self.snd_buf.len() as u64);
                self.snd_buf.drain(..drop as usize);
                self.snd_base += drop;
            }
            if let Some(window) = outcome.window {
                self.send_limit = self.send_limit.max(ack + window);
            }
        } else if let Some(window) = outcome.window {
            // Handshake segments carry no DSS; window is absolute.
            self.send_limit = self.send_limit.max(window);
        }
        if let Some((dsn, data, fin)) = outcome.payload {
            self.meta_recv(dsn, &data, fin);
            self.process_tls(now);
        }
        if !outcome.add_addrs.is_empty() && self.role == Role::Client && self.config.multipath {
            for (id, addr) in outcome.add_addrs {
                self.remote_addrs.insert(id, addr);
            }
            self.maybe_join(now);
        }
    }

    /// Opens MP_JOIN subflows for unused local interfaces, pairing local
    /// index `i` with the server address advertised under id `i` (same
    /// convention as the MPQUIC path manager).
    fn maybe_join(&mut self, _now: SimTime) {
        if self.subflows.is_empty() || self.subflows[0].state != SubflowState::Established {
            return;
        }
        for i in 0..self.local_addrs.len() {
            if i == self.initial_local_index {
                continue;
            }
            let local = self.local_addrs[i];
            if self.subflows.iter().any(|sf| sf.local == local) {
                continue;
            }
            let remote = self.remote_addrs.get(&(i as u8)).copied().or_else(|| {
                if self.remote_addrs.len() == 1 {
                    self.remote_addrs.values().next().copied()
                } else {
                    None
                }
            });
            let Some(remote) = remote else { continue };
            let index = self.subflows.len();
            let mut sf = self.make_subflow(index, local, remote);
            sf.connect(Some(i as u8));
            self.subflows.push(sf);
        }
    }

    // ------------------------------------------------------------------
    // Egress
    // ------------------------------------------------------------------

    /// Produces the next outgoing datagram. Call until `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        let data_ack = self.rcv_nxt;
        let window = self.advertised_window();
        // 1. Subflow control traffic: handshakes, same-subflow
        //    retransmissions, pure ACKs.
        for i in 0..self.subflows.len() {
            let multipath = self.config.multipath;
            let sf = &mut self.subflows[i];
            if let Some(seg) = sf.poll_control(now, data_ack, window, multipath) {
                return Some(self.wrap(i, seg));
            }
        }
        // 2. ORP: if the meta window blocks new data, reinject the
        //    blocking range on a free subflow and penalize the slow one.
        self.orp_check(now);
        // 3. Reinjection queue (from ORP and subflow RTOs).
        if let Some(t) = self.emit_reinjection(now, data_ack) {
            return Some(t);
        }
        // 4. New data via the lowest-RTT scheduler.
        self.emit_new_data(now, data_ack)
    }

    fn wrap(&mut self, idx: usize, segment: Segment) -> Datagram {
        let encoded = segment.encode();
        let sf = &mut self.subflows[idx];
        sf.stats.segments_sent += 1;
        sf.stats.bytes_sent += encoded.len() as u64;
        Datagram {
            local: sf.local,
            remote: sf.remote,
            payload: encoded,
        }
    }

    /// dsn-space end of buffered data.
    fn write_end(&self) -> u64 {
        self.snd_base + self.snd_buf.len() as u64
    }

    /// Copies `[dsn, dsn+len)` out of the meta buffer.
    fn meta_slice(&self, dsn: u64, len: u64) -> Option<Bytes> {
        if dsn < self.snd_base || dsn + len > self.write_end() {
            return None;
        }
        let start = (dsn - self.snd_base) as usize;
        let out: Vec<u8> = self
            .snd_buf
            .iter()
            .skip(start)
            .take(len as usize)
            .copied()
            .collect();
        Some(Bytes::from(out))
    }

    fn pick_subflow_for_data(&mut self, min_space: u64, exclude_dsn: Option<u64>) -> Option<usize> {
        let all_pf = self
            .subflows
            .iter()
            .filter(|sf| sf.state == SubflowState::Established)
            .all(|sf| sf.pf);
        if all_pf {
            // Linux: when every subflow is potentially failed, clear the
            // flags and keep trying rather than deadlocking.
            for sf in &mut self.subflows {
                sf.pf = false;
            }
        }
        self.subflows
            .iter()
            .enumerate()
            .filter(|(_, sf)| sf.usable_for_data() && sf.cwnd_available() >= min_space)
            .filter(|(_, sf)| exclude_dsn.is_none_or(|d| !sf.carries_dsn(d)))
            .min_by_key(|(_, sf)| sf.rtt.srtt())
            .map(|(i, _)| i)
    }

    fn orp_check(&mut self, now: SimTime) {
        if !self.config.orp || !self.config.multipath || self.subflows.len() < 2 {
            return;
        }
        // Rate-limit: the blocking check walks subflow queues; once per
        // few milliseconds is plenty (Linux evaluates per incoming ack).
        if self
            .last_orp_check
            .is_some_and(|t| now.saturating_duration_since(t) < Duration::from_millis(5))
        {
            return;
        }
        self.last_orp_check = Some(now);
        let window_blocked = self.snd_nxt >= self.send_limit && self.write_end() > self.snd_nxt;
        if !window_blocked {
            return;
        }
        let blocking = self.snd_base;
        if blocking >= self.write_end() || self.reinjected.contains(blocking) {
            return;
        }
        // A free subflow that does not already carry the blocking data.
        if self
            .pick_subflow_for_data(self.config.mss as u64, Some(blocking))
            .is_none()
        {
            return;
        }
        let len = (self.config.mss as u64).min(self.write_end() - blocking);
        self.reinject_queue.push_back((blocking, len));
        self.reinjected.insert_range(blocking, blocking + len - 1);
        self.stats.reinjections += 1;
        // Penalize the subflow that carried the blocking data.
        if let Some(slow) = self.subflows.iter_mut().find(|sf| sf.carries_dsn(blocking)) {
            if slow.penalize(now) {
                self.stats.penalizations += 1;
            }
        }
    }

    fn emit_reinjection(&mut self, now: SimTime, data_ack: u64) -> Option<Datagram> {
        while let Some(&(dsn, len)) = self.reinject_queue.front() {
            if dsn + len <= self.data_ack_remote.max(self.snd_base) {
                self.reinject_queue.pop_front();
                continue; // already meta-acked
            }
            let idx = self.pick_subflow_for_data(len, Some(dsn))?;
            self.reinject_queue.pop_front();
            let Some(payload) = self.meta_slice(dsn, len) else {
                continue;
            };
            let data_fin = self
                .fin_dsn
                .is_some_and(|fin| fin >= dsn && fin < dsn + len.max(1));
            let window = self.advertised_window();
            let seg = self.subflows[idx].send_data(now, payload, dsn, data_fin, data_ack, window);
            return Some(self.wrap(idx, seg));
        }
        None
    }

    fn emit_new_data(&mut self, now: SimTime, data_ack: u64) -> Option<Datagram> {
        let sendable_end = self.write_end().min(self.send_limit);
        if self.snd_nxt >= sendable_end {
            return None;
        }
        let idx = self.pick_subflow_for_data(self.config.mss as u64, None)?;
        let len = (self.config.mss as u64).min(sendable_end - self.snd_nxt);
        let dsn = self.snd_nxt;
        let payload = self.meta_slice(dsn, len)?;
        let data_fin = self
            .fin_dsn
            .is_some_and(|fin| fin >= dsn && fin < dsn + len);
        self.snd_nxt += len;
        let window = self.advertised_window();
        let seg = self.subflows[idx].send_data(now, payload, dsn, data_fin, data_ack, window);
        Some(self.wrap(idx, seg))
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest pending timer across subflows.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.subflows.iter().filter_map(Subflow::next_timeout).min()
    }

    /// Fires due timers; subflow RTOs feed the reinjection queue.
    pub fn on_timeout(&mut self, now: SimTime) {
        for i in 0..self.subflows.len() {
            let due = self.subflows[i].next_timeout().is_some_and(|t| t <= now);
            if !due {
                continue;
            }
            let stalled = self.subflows[i].on_timeout(now);
            if !self.config.multipath || self.subflows.len() < 2 {
                continue;
            }
            // Reinject the failed subflow's outstanding data on another
            // subflow (Linux empties the queue into the meta reinjection
            // queue on RTO). Later RTOs may re-queue ranges whose earlier
            // reinjection was itself lost — the backoff bounds the rate.
            let acked = self.snd_base.max(self.data_ack_remote);
            for (dsn, len) in stalled {
                if dsn + len <= acked {
                    continue;
                }
                if self
                    .reinject_queue
                    .iter()
                    .any(|&(d, l)| d == dsn && l == len)
                {
                    continue;
                }
                self.reinject_queue.push_back((dsn, len));
                self.reinjected.insert_range(dsn, dsn + len.max(1) - 1);
                self.stats.reinjections += 1;
            }
        }
    }
}

impl Endpoint for TcpStack {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        TcpStack::handle_datagram(self, now, local, remote, payload);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        TcpStack::poll_transmit(self, now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        TcpStack::next_timeout(self)
    }

    fn on_timeout(&mut self, now: SimTime) {
        TcpStack::on_timeout(self, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_util::check::{self, check, CASES};
    use mpquic_util::DetRng;

    const C0: &str = "10.0.0.1:50000";
    const C1: &str = "10.1.0.1:50000";
    const S0: &str = "10.0.1.1:4433";
    const S1: &str = "10.1.1.1:4433";

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn shuttle(client: &mut TcpStack, server: &mut TcpStack, now: SimTime) {
        for _ in 0..128 {
            let mut any = false;
            while let Some(t) = client.poll_transmit(now) {
                server.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            while let Some(t) = server.poll_transmit(now) {
                client.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            if !any {
                return;
            }
        }
        panic!("shuttle did not quiesce");
    }

    fn advance(client: &mut TcpStack, server: &mut TcpStack) -> SimTime {
        let now = [client.next_timeout(), server.next_timeout()]
            .into_iter()
            .flatten()
            .min()
            .expect("a timer is armed");
        client.on_timeout(now);
        server.on_timeout(now);
        shuttle(client, server, now);
        now
    }

    fn pair(multipath: bool) -> (TcpStack, TcpStack) {
        let config = if multipath {
            TcpConfig::multipath()
        } else {
            TcpConfig::single_path()
        };
        let client = TcpStack::client(config.clone(), vec![addr(C0), addr(C1)], 0, addr(S0));
        let server = TcpStack::server(config, vec![addr(S0), addr(S1)]);
        (client, server)
    }

    fn established(multipath: bool) -> (TcpStack, TcpStack) {
        let (mut c, mut s) = pair(multipath);
        shuttle(&mut c, &mut s, SimTime::from_millis(1));
        assert!(c.is_established() && s.is_established());
        (c, s)
    }

    #[test]
    fn zero_latency_handshake_with_tls() {
        let (c, s) = established(false);
        assert_eq!(c.established_at(), Some(SimTime::from_millis(1)));
        assert_eq!(s.established_at(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn data_round_trip_and_fin() {
        let (mut c, mut s) = established(false);
        c.write(Bytes::from_static(b"hello over tcp"));
        c.finish();
        shuttle(&mut c, &mut s, SimTime::from_millis(2));
        let mut got = Vec::new();
        while let Some(chunk) = s.read(usize::MAX) {
            got.extend_from_slice(&chunk);
        }
        // The DATA_FIN sentinel must not reach the application.
        assert_eq!(&got, b"hello over tcp");
        assert!(s.recv_finished());
        for _ in 0..4 {
            if c.send_complete() {
                break;
            }
            advance(&mut c, &mut s);
        }
        assert!(c.send_complete());
    }

    #[test]
    fn empty_stream_fin_works() {
        let (mut c, mut s) = established(false);
        c.finish();
        shuttle(&mut c, &mut s, SimTime::from_millis(2));
        assert!(s.read(usize::MAX).is_none());
        assert!(s.recv_finished());
    }

    #[test]
    fn writes_before_establishment_are_buffered() {
        let (mut c, mut s) = pair(false);
        c.write(Bytes::from_static(b"early"));
        c.finish();
        shuttle(&mut c, &mut s, SimTime::from_millis(1));
        let mut got = Vec::new();
        while let Some(chunk) = s.read(usize::MAX) {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got, b"early");
        assert!(s.recv_finished());
    }

    #[test]
    fn mptcp_join_creates_second_subflow_both_sides() {
        let (mut c, mut s) = established(true);
        shuttle(&mut c, &mut s, SimTime::from_millis(2));
        assert_eq!(c.subflow_count(), 2);
        assert_eq!(s.subflow_count(), 2);
        let join = c.subflow(1).unwrap();
        assert!(join.is_join);
        assert_eq!(join.local, addr(C1));
        assert_eq!(join.remote, addr(S1));
        assert_eq!(join.state, SubflowState::Established);
    }

    #[test]
    fn single_path_never_joins() {
        // Server is multipath (advertises), client is plain TCP.
        let client_cfg = TcpConfig::single_path();
        let server_cfg = TcpConfig::multipath();
        let mut c = TcpStack::client(client_cfg, vec![addr(C0), addr(C1)], 0, addr(S0));
        let mut s = TcpStack::server(server_cfg, vec![addr(S0), addr(S1)]);
        shuttle(&mut c, &mut s, SimTime::from_millis(1));
        c.write(Bytes::from(vec![1u8; 10_000]));
        c.finish();
        shuttle(&mut c, &mut s, SimTime::from_millis(2));
        assert_eq!(c.subflow_count(), 1);
    }

    #[test]
    fn second_mp_capable_syn_is_ignored() {
        let (mut c, mut s) = established(false);
        // Forge a second SYN from a new address without MP_JOIN.
        let syn = Segment::new(0, 0, crate::segment::flags::SYN).encode();
        s.handle_datagram(
            SimTime::from_millis(3),
            addr(S0),
            addr(
                "203.0.113.9:999"
                    .parse::<SocketAddr>()
                    .unwrap()
                    .to_string()
                    .as_str(),
            ),
            &syn,
        );
        assert_eq!(s.subflow_count(), 1);
        let _ = &mut c;
    }

    #[test]
    fn advertised_window_shrinks_with_buffered_data() {
        let (mut c, mut s) = established(false);
        let full = s.advertised_window();
        // Deliver an out-of-order meta chunk directly: it buffers.
        s.meta_recv(100_000, &Bytes::from(vec![0u8; 5_000]), false);
        assert_eq!(s.advertised_window(), full - 5_000);
        let _ = &mut c;
    }

    #[test]
    fn meta_recv_deduplicates_overlaps() {
        let (_, mut s) = established(false);
        let base = s.rcv_nxt; // TLS bytes already consumed
        s.meta_recv(base, &Bytes::from(vec![1u8; 100]), false);
        s.meta_recv(base + 50, &Bytes::from(vec![2u8; 100]), false); // overlap
        s.meta_recv(base, &Bytes::from(vec![3u8; 150]), false); // full dup
        let mut got = Vec::new();
        while let Some(chunk) = s.read(usize::MAX) {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got.len(), 150);
        assert_eq!(&got[..100], &[1u8; 100][..], "first copy wins");
        assert_eq!(&got[100..], &[2u8; 50][..]);
    }

    #[test]
    fn stats_aggregate_subflows() {
        let (mut c, mut s) = established(true);
        c.write(Bytes::from(vec![1u8; 100_000]));
        c.finish();
        for _ in 0..20 {
            if s.recv_finished() {
                break;
            }
            shuttle(&mut c, &mut s, SimTime::from_millis(2));
            while s.read(usize::MAX).is_some() {}
            if c.next_timeout().is_some() || s.next_timeout().is_some() {
                advance(&mut c, &mut s);
            }
        }
        while s.read(usize::MAX).is_some() {}
        assert!(s.recv_finished());
        let stats = c.stats();
        assert!(stats.segments_sent > 70);
        assert!(stats.bytes_sent > 100_000);
    }

    /// Meta reassembly delivers exactly the original byte stream no
    /// matter how the segments are sliced, duplicated and reordered.
    #[test]
    fn prop_meta_reassembly_matches_model() {
        let gen = |rng: &mut DetRng| {
            let len = 1 + rng.index(1999);
            let cuts = check::vec(rng, 0..20, |rng| rng.index(2000));
            let order = check::vec(rng, 0..40, |rng| rng.next_u64() as u16);
            let dups = check::vec(rng, 0..10, |rng| rng.next_u64() as u16);
            (len, cuts, order, dups)
        };
        check(0x57AC_0001, CASES, gen, |(len, cuts, order, dups)| {
            let mut stack = TcpStack::server(
                TcpConfig {
                    tls: false,
                    ..TcpConfig::single_path()
                },
                vec![addr(S0)],
            );
            stack.tls = TlsState::Done; // skip handshake plumbing
                                        // Build the original stream.
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            // Slice into segments at the cut points.
            let mut points: Vec<usize> = cuts.into_iter().map(|c| c % len).collect();
            points.push(0);
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut segments: Vec<(u64, Bytes)> = points
                .windows(2)
                .filter(|w| w[1] > w[0])
                .map(|w| (w[0] as u64, Bytes::copy_from_slice(&data[w[0]..w[1]])))
                .collect();
            // Duplicate a few.
            for d in dups {
                let idx = (d as usize) % segments.len();
                segments.push(segments[idx].clone());
            }
            // Reorder deterministically from the order vector.
            for (i, o) in order.iter().enumerate() {
                if segments.len() > 1 {
                    let a = i % segments.len();
                    let b = (*o as usize) % segments.len();
                    segments.swap(a, b);
                }
            }
            let fin_dsn = len as u64;
            for (dsn, payload) in &segments {
                stack.meta_recv(*dsn, payload, false);
            }
            // FIN sentinel as its own final byte.
            stack.meta_recv(fin_dsn, &Bytes::from_static(&[0]), true);
            let mut got = Vec::new();
            while let Some(chunk) = stack.read(usize::MAX) {
                got.extend_from_slice(&chunk);
            }
            assert_eq!(got, data);
            assert!(stack.recv_finished());
        });
    }
}
