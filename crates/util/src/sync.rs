//! Switchable concurrency primitives: `std` normally, the in-tree
//! model checker under `--cfg loom`.
//!
//! Code that participates in a cross-thread protocol (the endpoint's
//! stop flag, stats counters, the idle-backoff ladder) imports its
//! primitives from here instead
//! of `std::sync`/`std::thread`/`std::hint`. A normal build re-exports
//! the `std` types — zero overhead, identical semantics. A build with
//! `RUSTFLAGS="--cfg loom"` swaps in the [`crate::model`] types, whose
//! operations are scheduling points for the exhaustive interleaving
//! explorer, so the same production code paths can be model-checked
//! unmodified (the flag is named for the `loom` crate whose role the
//! in-tree explorer plays).
//!
//! Two deliberate asymmetries under the model:
//!
//! - [`thread::sleep`] yields instead of sleeping (model time does not
//!   advance), so backoff ladders stay schedulable.
//! - [`hint::spin_loop`] yields, because a pause instruction cannot
//!   make another model thread run.
//!
//! OS-facing thread management (`std::thread::spawn` for the endpoint's
//! loops, socket I/O) intentionally stays on `std`: model tests drive
//! the extracted protocol directly rather than binding sockets.

/// Shared-ownership pointer; the model does not instrument `Arc`
/// itself, so both builds use [`std::sync::Arc`].
pub use std::sync::Arc;

#[cfg(not(loom))]
pub mod atomic {
    //! Atomic types (std build).
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(loom)]
pub mod atomic {
    //! Atomic types (model build).
    pub use crate::model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

#[cfg(not(loom))]
pub mod mpsc {
    //! Channels (std build).
    pub use std::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, SendError, Sender, SyncSender, TryRecvError,
        TrySendError,
    };
}

#[cfg(loom)]
pub mod mpsc {
    //! Channels (model build).
    pub use crate::model::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, SendError, Sender, SyncSender, TryRecvError,
        TrySendError,
    };
}

#[cfg(not(loom))]
pub mod thread {
    //! Scheduling-relevant thread operations (std build).
    pub use std::thread::{sleep, yield_now};
}

#[cfg(loom)]
pub mod thread {
    //! Scheduling-relevant thread operations (model build).
    pub use crate::model::thread::{sleep, yield_now};
}

#[cfg(not(loom))]
pub mod hint {
    //! Spin hints (std build).
    pub use std::hint::spin_loop;
}

#[cfg(loom)]
pub mod hint {
    //! Spin hints (model build).
    pub use crate::model::hint::spin_loop;
}
