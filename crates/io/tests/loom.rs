//! Model-checked test for the endpoint loop's idle wait (build with
//! `RUSTFLAGS="--cfg loom"`).
//!
//! The endpoint's loops hand nothing to each other — the kernel steers
//! each connection's datagrams to the loop that owns it (DESIGN.md
//! §12) — so the one cross-thread protocol left to check is the loop
//! against whoever feeds and stops it: under `mpquic_util::model`'s
//! exhaustive interleaving explorer, the yield-first idle ladder
//! (single-core regression, PR 6) always observes a racing ingress
//! datagram — **no lost wakeup**, which no single lucky `cargo test`
//! schedule can establish.

#![cfg(loom)]

use mpquic_io::Backoff;
use mpquic_util::model;
use mpquic_util::sync::atomic::{AtomicBool, Ordering};
use mpquic_util::sync::mpsc::channel;
use mpquic_util::sync::Arc;

/// PR 6 single-core regression: the endpoint loop's yield-first idle
/// ladder ([`Backoff::yielding`]) races an ingress burst and a stop
/// request. No interleaving may lose a wakeup — after the stop flag is
/// observed, one final drain sees every message sent before it.
#[test]
fn yield_first_idle_ladder_never_loses_a_wakeup() {
    model::run(|| {
        let (tx, rx) = channel::<u32>();
        let stop = Arc::new(AtomicBool::new(false));

        let producer = {
            let stop = Arc::clone(&stop);
            model::thread::spawn(move || {
                tx.send(1).expect("consumer alive");
                tx.send(2).expect("consumer alive");
                // Release pairs with the consumer's Acquire: both
                // sends happen-before the flag.
                stop.store(true, Ordering::Release);
            })
        };

        // The endpoint-loop shape: drain, stop check, graduated idle
        // wait. On a single core the ladder starts at the yield stage.
        let mut backoff = Backoff::yielding();
        let mut got = 0;
        loop {
            let mut progressed = false;
            while rx.try_recv().is_ok() {
                got += 1;
                progressed = true;
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            if progressed {
                backoff.reset();
            } else {
                backoff.wait();
            }
        }
        // Final drain after stop, as the teardown path does.
        while rx.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 2, "a datagram racing the idle park was lost");
        producer.join().expect("producer");
    });
}
