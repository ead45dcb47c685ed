//! Model-checked test for the endpoint loop's idle wait (build with
//! `RUSTFLAGS="--cfg loom"`).
//!
//! The endpoint's loops hand nothing to each other — the kernel steers
//! each connection's datagrams to the loop that owns it (DESIGN.md
//! §12) — so the one cross-thread protocol left to check is the loop
//! against whoever feeds and stops it. An idle loop walks the cheap
//! rungs of [`Backoff`] and then *parks* with no timeout
//! (`SocketRegistry::wait_readable(None)`): only a datagram or the
//! stopper's wake can end that wait. Under `mpquic_util::model`'s
//! exhaustive interleaving explorer, no schedule leaves the loop
//! parked with a datagram unread or a stop unseen — **no lost wakeup**,
//! which no single lucky `cargo test` schedule can establish.

#![cfg(loom)]

use mpquic_io::Backoff;
use mpquic_util::model;
use mpquic_util::sync::atomic::{AtomicBool, Ordering};
use mpquic_util::sync::mpsc::{channel, Receiver};
use mpquic_util::sync::Arc;

/// What makes a parked loop's descriptors readable.
enum Readable {
    /// A datagram on one of the loop's sockets.
    Datagram,
    /// A write to the loop's wake descriptor.
    Wake,
}

/// The kernel side of a loop's `SocketRegistry` as the model sees it:
/// one queue standing for everything `ppoll` watches. Readiness is
/// level-triggered, as it is in the kernel — nothing that became
/// readable is forgotten until the loop consumes it: a datagram the
/// park saw stays for the next poll, a wake the poll saw ends the next
/// park.
struct ModelSockets {
    kernel: Receiver<Readable>,
    /// Datagrams a park found readable and left for the next poll.
    unread: u32,
    /// The wake descriptor is readable (written and not yet drained).
    wake_pending: bool,
}

impl ModelSockets {
    /// `poll_recv_batch`: takes every datagram there is, never blocks.
    fn poll(&mut self) -> u32 {
        let mut got = std::mem::take(&mut self.unread);
        while let Ok(readable) = self.kernel.try_recv() {
            match readable {
                Readable::Datagram => got += 1,
                Readable::Wake => self.wake_pending = true,
            }
        }
        got
    }

    /// `wait_readable(None)`: returns at once if anything is readable,
    /// else blocks until something is. Drains the wake descriptor,
    /// leaves datagrams where they are.
    fn park(&mut self) {
        if std::mem::take(&mut self.wake_pending) {
            return;
        }
        match self.kernel.recv() {
            Ok(Readable::Datagram) => self.unread += 1,
            Ok(Readable::Wake) => {}
            Err(_) => unreachable!("the loop holds a sender: descriptors do not hang up"),
        }
    }
}

/// `datagrams` sends and then a stop request race a loop that is
/// already past the cheap rungs, so its very first idle step parks —
/// without a timeout. Returns how many datagrams the loop received.
///
/// The cheap rungs are spent up front because under the model a yield
/// lets every other thread run to its next block: a loop that yields
/// before it parks would only ever park against a finished producer.
fn race_a_parked_loop(datagrams: u32) -> u32 {
    let (tx, rx) = channel::<Readable>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut backoff = Backoff::new();
    while backoff.next_sleep().is_none() {
        backoff.wait();
    }

    let producer = {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        model::thread::spawn(move || {
            for _ in 0..datagrams {
                tx.send(Readable::Datagram).expect("loop alive");
            }
            // `stop_and_join`: flag, then wake. Release pairs with the
            // loop's Acquire: the sends happen-before the flag.
            stop.store(true, Ordering::Release);
            tx.send(Readable::Wake).expect("loop alive");
        })
    };

    // `run_loop`'s shape: poll, stop check, then spin → yield → park.
    let mut sockets = ModelSockets {
        kernel: rx,
        unread: 0,
        wake_pending: false,
    };
    let mut got = 0;
    loop {
        let received = sockets.poll();
        got += received;
        if stop.load(Ordering::Acquire) {
            break;
        }
        if received > 0 {
            backoff.reset();
        } else {
            backoff.wait_or_park(|| sockets.park());
        }
    }
    // The flag was read after the last poll: count what was sent in
    // between.
    got += sockets.poll();
    producer.join().expect("producer");
    // Held to here so the model's queue, like a descriptor, never
    // reports a hang-up to the parked loop.
    drop(tx);
    got
}

/// A stop raised at any point — before the loop's flag check, between
/// the check and the park, or while it is parked — ends the loop. A
/// lost wakeup would leave it parked for ever, which the explorer
/// reports as a deadlock; raising the flag *after* the wake instead of
/// before it is such a bug, and fails this test.
#[test]
fn a_stop_always_wakes_a_parked_loop() {
    model::run(|| {
        race_a_parked_loop(0);
    });
}

/// Datagrams sent before or during a park end it, and every one sent
/// before the stop is received.
#[test]
fn a_parked_loop_never_sleeps_through_a_datagram() {
    model::run(|| {
        assert_eq!(
            race_a_parked_loop(2),
            2,
            "a datagram racing the park was lost"
        );
    });
}
