//! In-tree exhaustive interleaving explorer for concurrent protocols.
//!
//! A concurrent protocol's correctness claims — the endpoint loop's
//! idle ladder never loses a wakeup, say — are statements about *all*
//! interleavings, but `cargo test` observes exactly one. This
//! module is a small model checker in the spirit of `loom`: the types
//! in [`thread`], [`sync`], and [`hint`] mirror their `std`
//! counterparts, and [`run`] executes a closure under **every**
//! distinguishable thread schedule, panicking with the offending
//! schedule when any execution fails an assertion, deadlocks, or
//! exceeds the step budget.
//!
//! # How it works
//!
//! Model threads are real OS threads, but a cooperative scheduler
//! (mutex + condvar) ensures **exactly one runs at a time**. Each
//! potentially-racy operation — a channel send/recv, a non-`Relaxed`
//! atomic access, a yield or spin hint — is a *scheduling point* where
//! the running thread parks and the scheduler picks the next runnable
//! thread. The first execution records, at every pick, which other
//! threads were runnable; subsequent executions replay a prefix of
//! those choices and flip the last un-exhausted one, performing a
//! depth-first search over the schedule tree until no unexplored
//! branch remains.
//!
//! # Fidelity and reductions
//!
//! Exploration is sound for the protocols this repo models but
//! deliberately coarser than a full memory-model checker:
//!
//! - All atomics execute sequentially consistently; orderings passed
//!   by the caller select whether the access is a scheduling point.
//!   `Relaxed` accesses do **not** branch the schedule — the registry
//!   in `crates/xtask/atomics.toml` restricts `Relaxed` to commutative
//!   counters, for which interleaving order is observationally
//!   irrelevant. `Acquire`/`Release`/`AcqRel`/`SeqCst` accesses do
//!   branch. This prunes the state space where it provably does not
//!   matter and explores it where it does. Weak-memory reorderings are
//!   *not* modeled; the TSan CI job covers that axis dynamically.
//! - A thread that called [`thread::yield_now`] (or [`hint::spin_loop`],
//!   which the model treats identically) is not eligible to run again
//!   until every non-yielded thread has parked, finished, or blocked.
//!   This is the same reduction `loom` applies to spin loops: it keeps
//!   busy-wait ladders from generating unbounded futile re-check
//!   schedules while still exploring every order of *productive* steps.
//!
//! Deadlocks (all live threads blocked), livelocks (per-execution step
//! budget), replay divergence (nondeterministic user code), and panics
//! inside model threads are all reported as failures together with the
//! schedule that produced them.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Hard cap on scheduling points within a single execution; exceeding
/// it is reported as a livelock.
const MAX_STEPS: usize = 50_000;
/// Hard cap on executions explored by one [`run`] call. Models in this
/// repo complete in well under this; hitting it means the model is too
/// big to check exhaustively and should be shrunk.
const MAX_EXECUTIONS: u64 = 1_000_000;
/// Hard cap on concurrently registered model threads.
const MAX_THREADS: usize = 16;

/// Sentinel panic payload used to unwind model threads during teardown
/// after a failure has already been recorded; never reported itself.
struct ModelExit;

/// Lifecycle of one model thread, as seen by the scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Runnable and eligible for scheduling.
    Ready,
    /// Voluntarily yielded; runs again only once no `Ready` thread
    /// remains (spin-loop reduction).
    Yielded,
    /// Waiting on a channel or join; made `Ready` by a wakeup.
    Blocked,
    /// Returned or unwound; never scheduled again.
    Finished,
}

/// One recorded scheduling decision: the thread chosen and the
/// runnable alternatives not yet explored at this point.
#[derive(Clone, Debug)]
struct Branch {
    chosen: usize,
    rest: Vec<usize>,
}

struct ExecState {
    threads: Vec<TState>,
    /// Thread currently allowed to run; `None` between picks.
    active: Option<usize>,
    /// Threads not yet `Finished`.
    live: usize,
    /// Schedule: replayed prefix plus decisions recorded this run.
    schedule: Vec<Branch>,
    /// Next index of `schedule` to consume (replay) or append (record).
    pos: usize,
    steps: usize,
    failure: Option<String>,
}

/// Shared scheduler for one execution: serializes model threads and
/// records/replays scheduling decisions.
struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CONTEXT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Per-thread handle into the active execution, stored thread-locally
/// so `std`-shaped APIs (no explicit scheduler argument) can reach it.
#[derive(Clone)]
struct Ctx {
    exec: Arc<Execution>,
    id: usize,
}

fn current() -> Option<Ctx> {
    CONTEXT.with(|c| c.borrow().clone())
}

fn payload_str(p: &(dyn Any + Send)) -> &str {
    p.downcast_ref::<&'static str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(|s| s.as_str()))
        .unwrap_or("non-string panic payload")
}

impl Execution {
    fn new(prefix: Vec<Branch>) -> Execution {
        Execution {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                active: None,
                live: 0,
                schedule: prefix,
                pos: 0,
                steps: 0,
                failure: None,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Locks the scheduler state, shrugging off poisoning: a model
    /// thread that panicked mid-operation must not wedge teardown.
    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self) -> usize {
        let mut st = self.lock();
        assert!(
            st.threads.len() < MAX_THREADS,
            "model: more than {MAX_THREADS} threads"
        );
        st.threads.push(TState::Ready);
        st.live += 1;
        st.threads.len() - 1
    }

    /// Records a failure (first one wins) and wakes everything so all
    /// threads can unwind and the controller can observe completion.
    fn fail(&self, msg: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.active = None;
        for t in st.threads.iter_mut() {
            if *t == TState::Blocked || *t == TState::Yielded {
                *t = TState::Ready;
            }
        }
        self.cv.notify_all();
    }

    /// Wakes every blocked thread (they re-check their condition when
    /// next scheduled). Called after any channel state change and when
    /// a thread finishes (for joiners). Spurious wakeups are fine.
    fn wake_blocked(st: &mut ExecState) {
        for t in st.threads.iter_mut() {
            if *t == TState::Blocked {
                *t = TState::Ready;
            }
        }
    }

    /// Chooses the next thread to run, replaying the recorded schedule
    /// while it lasts and recording a new branch point beyond it.
    fn pick_next(&self, st: &mut ExecState) {
        st.active = None;
        if st.failure.is_some() || st.live == 0 {
            self.cv.notify_all();
            return;
        }
        let mut eligible: Vec<usize> = (0..st.threads.len())
            .filter(|&i| st.threads[i] == TState::Ready)
            .collect();
        if eligible.is_empty() {
            let yielded: Vec<usize> = (0..st.threads.len())
                .filter(|&i| st.threads[i] == TState::Yielded)
                .collect();
            if yielded.is_empty() {
                self.fail_inline(st, "deadlock: every live thread is blocked".into());
                return;
            }
            // Every runnable thread has yielded: promote them all and
            // branch among them as usual.
            for &id in &yielded {
                st.threads[id] = TState::Ready;
            }
            eligible = yielded;
        }
        st.steps += 1;
        if st.steps > MAX_STEPS {
            self.fail_inline(
                st,
                format!("livelock: execution exceeded {MAX_STEPS} scheduling points"),
            );
            return;
        }
        let chosen = if st.pos < st.schedule.len() {
            let c = st.schedule[st.pos].chosen;
            if !eligible.contains(&c) {
                self.fail_inline(
                    st,
                    format!(
                        "replay diverged at step {}: thread {c} not runnable \
                         (model code must be deterministic)",
                        st.pos
                    ),
                );
                return;
            }
            c
        } else {
            let mut rest = eligible;
            let chosen = rest.remove(0);
            st.schedule.push(Branch { chosen, rest });
            chosen
        };
        st.pos += 1;
        st.active = Some(chosen);
        self.cv.notify_all();
    }

    /// `fail` while already holding the state lock.
    fn fail_inline(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.active = None;
        for t in st.threads.iter_mut() {
            if *t == TState::Blocked || *t == TState::Yielded {
                *t = TState::Ready;
            }
        }
        self.cv.notify_all();
    }

    /// Parks the calling thread in `park` state, lets the scheduler
    /// pick the next thread, and returns once this thread is scheduled
    /// again. Unwinds with [`ModelExit`] if a failure is flagged.
    fn switch(&self, me: usize, park: TState) {
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            std::panic::panic_any(ModelExit);
        }
        st.threads[me] = park;
        self.pick_next(&mut st);
        loop {
            if st.failure.is_some() {
                drop(st);
                std::panic::panic_any(ModelExit);
            }
            if st.active == Some(me) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[me] = TState::Ready;
    }

    /// First wait of a freshly spawned thread: runs the body only once
    /// scheduled. Returns `false` when the execution already failed.
    fn wait_initial(&self, me: usize) -> bool {
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                return false;
            }
            if st.active == Some(me) {
                st.threads[me] = TState::Ready;
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me] = TState::Finished;
        st.live -= 1;
        // Joiners block on this thread's completion.
        Self::wake_blocked(&mut st);
        self.pick_next(&mut st);
    }

    fn is_finished(&self, id: usize) -> bool {
        self.lock().threads[id] == TState::Finished
    }

    /// Blocks until every model thread has finished (normally or by
    /// teardown unwind).
    fn wait_done(&self) {
        let mut st = self.lock();
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A scheduling point: park runnable, let any other thread run.
fn sched_point() {
    if let Some(ctx) = current() {
        ctx.exec.switch(ctx.id, TState::Ready);
    }
}

/// Parks the calling thread until a wakeup; outside a model run, falls
/// back to an OS yield (callers loop on their condition).
fn block_point() {
    if let Some(ctx) = current() {
        ctx.exec.switch(ctx.id, TState::Blocked);
    } else {
        std::thread::yield_now();
    }
}

/// Wakes model threads blocked on a channel or join condition.
fn wake_point() {
    if let Some(ctx) = current() {
        let mut st = ctx.exec.lock();
        Execution::wake_blocked(&mut st);
    }
}

fn spawn_model_thread<T, F>(
    exec: &Arc<Execution>,
    id: usize,
    f: F,
) -> Arc<Mutex<Option<std::thread::Result<T>>>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let slot: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let exec2 = Arc::clone(exec);
    let real = std::thread::Builder::new()
        .name(format!("model-{id}"))
        .spawn(move || {
            CONTEXT.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    exec: Arc::clone(&exec2),
                    id,
                });
            });
            if exec2.wait_initial(id) {
                let r = catch_unwind(AssertUnwindSafe(f));
                if let Err(p) = &r {
                    if !p.is::<ModelExit>() {
                        exec2.fail(format!(
                            "model thread {id} panicked: {}",
                            payload_str(p.as_ref())
                        ));
                    }
                }
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            }
            CONTEXT.with(|c| c.borrow_mut().take());
            exec2.finish(id);
        })
        .expect("model: failed to spawn OS thread");
    exec.handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(real);
    slot
}

/// Runs `f` under every distinguishable thread interleaving.
///
/// `f` is executed repeatedly, once per schedule discovered by the
/// depth-first exploration; it must be deterministic apart from the
/// scheduling the model itself controls. Panics — with the offending
/// schedule — if any execution panics, deadlocks, livelocks past the
/// step budget, or diverges from its replay.
pub fn run<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        current().is_none(),
        "model::run may not be nested inside a model thread"
    );
    let f = Arc::new(f);
    let mut prefix: Vec<Branch> = Vec::new();
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        let exec = Arc::new(Execution::new(std::mem::take(&mut prefix)));
        let root = exec.register();
        let body = Arc::clone(&f);
        let _slot = spawn_model_thread(&exec, root, move || body());
        {
            let mut st = exec.lock();
            exec.pick_next(&mut st);
        }
        exec.wait_done();
        for h in exec
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = h.join();
        }
        let st = exec.lock();
        if let Some(msg) = &st.failure {
            let trace: Vec<usize> = st.schedule[..st.pos.min(st.schedule.len())]
                .iter()
                .map(|b| b.chosen)
                .collect();
            panic!(
                "model failure in execution {executions}: {msg}\n\
                 schedule (thread ids, in order): {trace:?}"
            );
        }
        let mut sched = st.schedule.clone();
        drop(st);
        // Depth-first backtrack: flip the deepest decision that still
        // has an unexplored alternative; done when none remains.
        loop {
            match sched.pop() {
                None => return,
                Some(mut b) => {
                    if let Some(next) = b.rest.pop() {
                        sched.push(Branch {
                            chosen: next,
                            rest: b.rest,
                        });
                        prefix = sched;
                        break;
                    }
                }
            }
        }
        assert!(
            executions < MAX_EXECUTIONS,
            "model: exceeded {MAX_EXECUTIONS} executions; shrink the model"
        );
    }
}

pub mod thread {
    //! Model-scheduled stand-ins for [`std::thread`] primitives.

    use super::*;

    /// Handle to a model thread; mirrors [`std::thread::JoinHandle`].
    pub struct JoinHandle<T> {
        id: usize,
        exec: Arc<Execution>,
        slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
    }

    impl<T> fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("JoinHandle").field("id", &self.id).finish()
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result, as
        /// [`std::thread::JoinHandle::join`] does.
        pub fn join(self) -> std::thread::Result<T> {
            while !self.exec.is_finished(self.id) {
                block_point();
            }
            self.slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("model: joined thread left no result")
        }
    }

    /// Spawns a model thread. Must be called from inside [`super::run`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let ctx = current().expect("model::thread::spawn outside model::run");
        let exec = Arc::clone(&ctx.exec);
        let id = exec.register();
        let slot = spawn_model_thread(&exec, id, f);
        // Spawning is a scheduling point: the child may run first.
        ctx.exec.switch(ctx.id, TState::Ready);
        JoinHandle { id, exec, slot }
    }

    /// Yields to the scheduler. Under the model this additionally
    /// marks the thread low-priority until every non-yielded thread
    /// has parked (spin-loop reduction, see the module docs).
    pub fn yield_now() {
        if let Some(ctx) = current() {
            ctx.exec.switch(ctx.id, TState::Yielded);
        } else {
            std::thread::yield_now();
        }
    }

    /// Model time does not advance: sleeping is modeled as a yield.
    pub fn sleep(_dur: std::time::Duration) {
        yield_now();
    }
}

pub mod hint {
    //! Model-scheduled stand-in for [`std::hint`].

    /// Spin-wait hint; a yield under the model (a spinning thread can
    /// only observe progress made by another thread).
    pub fn spin_loop() {
        if super::current().is_some() {
            super::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

pub mod sync {
    //! Model-scheduled stand-ins for [`std::sync`] primitives.

    pub mod atomic {
        //! Atomics whose non-`Relaxed` accesses are scheduling points.
        //!
        //! Values execute sequentially consistently (the model runs
        //! one thread at a time); the ordering argument decides only
        //! whether the access branches the schedule. See the crate
        //! module docs for why `Relaxed` accesses do not.

        use std::fmt;
        use std::sync::atomic::Ordering;

        fn point(order: Ordering) {
            if order != Ordering::Relaxed {
                super::super::sched_point();
            }
        }

        /// Both orderings of a compare-exchange participate.
        fn point2(success: Ordering, failure: Ordering) {
            if success != Ordering::Relaxed || failure != Ordering::Relaxed {
                super::super::sched_point();
            }
        }

        macro_rules! model_int_atomic {
            ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
                $(#[$meta])*
                pub struct $name {
                    v: $std,
                }

                impl $name {
                    /// Creates a new atomic with the given value.
                    pub const fn new(v: $prim) -> Self {
                        Self { v: <$std>::new(v) }
                    }

                    /// Loads the value; a scheduling point unless `Relaxed`.
                    pub fn load(&self, order: Ordering) -> $prim {
                        point(order);
                        self.v.load(Ordering::SeqCst)
                    }

                    /// Stores a value; a scheduling point unless `Relaxed`.
                    pub fn store(&self, val: $prim, order: Ordering) {
                        point(order);
                        self.v.store(val, Ordering::SeqCst)
                    }

                    /// Adds, returning the previous value.
                    pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                        point(order);
                        self.v.fetch_add(val, Ordering::SeqCst)
                    }

                    /// Subtracts, returning the previous value.
                    pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                        point(order);
                        self.v.fetch_sub(val, Ordering::SeqCst)
                    }

                    /// Swaps the value, returning the previous one.
                    pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                        point(order);
                        self.v.swap(val, Ordering::SeqCst)
                    }

                    /// Compare-and-exchange with `std` semantics.
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        point2(success, failure);
                        self.v
                            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                    }

                    /// Consumes the atomic, returning the inner value.
                    pub fn into_inner(self) -> $prim {
                        self.v.into_inner()
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        Self::new(0)
                    }
                }

                impl fmt::Debug for $name {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        fmt::Debug::fmt(&self.v.load(Ordering::SeqCst), f)
                    }
                }
            };
        }

        model_int_atomic!(
            /// Model counterpart of [`std::sync::atomic::AtomicU64`].
            AtomicU64,
            std::sync::atomic::AtomicU64,
            u64
        );
        model_int_atomic!(
            /// Model counterpart of [`std::sync::atomic::AtomicUsize`].
            AtomicUsize,
            std::sync::atomic::AtomicUsize,
            usize
        );

        /// Model counterpart of [`std::sync::atomic::AtomicBool`].
        pub struct AtomicBool {
            v: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates a new atomic with the given value.
            pub const fn new(v: bool) -> Self {
                Self {
                    v: std::sync::atomic::AtomicBool::new(v),
                }
            }

            /// Loads the value; a scheduling point unless `Relaxed`.
            pub fn load(&self, order: Ordering) -> bool {
                point(order);
                self.v.load(Ordering::SeqCst)
            }

            /// Stores a value; a scheduling point unless `Relaxed`.
            pub fn store(&self, val: bool, order: Ordering) {
                point(order);
                self.v.store(val, Ordering::SeqCst)
            }

            /// Swaps the value, returning the previous one.
            pub fn swap(&self, val: bool, order: Ordering) -> bool {
                point(order);
                self.v.swap(val, Ordering::SeqCst)
            }

            /// Compare-and-exchange with `std` semantics.
            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                point2(success, failure);
                self.v
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Consumes the atomic, returning the inner value.
            pub fn into_inner(self) -> bool {
                self.v.into_inner()
            }
        }

        impl Default for AtomicBool {
            fn default() -> Self {
                Self::new(false)
            }
        }

        impl fmt::Debug for AtomicBool {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.v.load(Ordering::SeqCst), f)
            }
        }
    }

    pub mod mpsc {
        //! Model-scheduled channels mirroring [`std::sync::mpsc`].
        //!
        //! Error types are re-exported from `std` so call sites match
        //! identically under both builds. Rendezvous channels
        //! (`sync_channel(0)`) are not modeled.

        use std::collections::VecDeque;
        use std::sync::{Arc, Mutex, MutexGuard};

        pub use std::sync::mpsc::{RecvError, SendError, TryRecvError, TrySendError};

        struct ChanState<T> {
            queue: VecDeque<T>,
            cap: Option<usize>,
            senders: usize,
            rx_alive: bool,
        }

        struct Chan<T> {
            st: Mutex<ChanState<T>>,
        }

        impl<T> Chan<T> {
            fn lock(&self) -> MutexGuard<'_, ChanState<T>> {
                self.st.lock().unwrap_or_else(|e| e.into_inner())
            }
        }

        fn new_chan<T>(cap: Option<usize>) -> Arc<Chan<T>> {
            Arc::new(Chan {
                st: Mutex::new(ChanState {
                    queue: VecDeque::new(),
                    cap,
                    senders: 1,
                    rx_alive: true,
                }),
            })
        }

        /// Creates an unbounded model channel, as [`std::sync::mpsc::channel`].
        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let c = new_chan(None);
            (Sender(Arc::clone(&c)), Receiver(c))
        }

        /// Creates a bounded model channel, as [`std::sync::mpsc::sync_channel`].
        ///
        /// # Panics
        ///
        /// If `cap == 0`: rendezvous hand-off is not modeled.
        pub fn sync_channel<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
            assert!(
                cap > 0,
                "model: rendezvous (capacity 0) channels unsupported"
            );
            let c = new_chan(Some(cap));
            (SyncSender(Arc::clone(&c)), Receiver(c))
        }

        /// Sending half of an unbounded model channel.
        pub struct Sender<T>(Arc<Chan<T>>);

        impl<T> Sender<T> {
            /// Queues a message; never blocks. Errors if the receiver
            /// is gone.
            pub fn send(&self, v: T) -> Result<(), SendError<T>> {
                super::super::sched_point();
                let mut st = self.0.lock();
                if !st.rx_alive {
                    return Err(SendError(v));
                }
                st.queue.push_back(v);
                drop(st);
                super::super::wake_point();
                Ok(())
            }
        }

        /// Sending half of a bounded model channel.
        pub struct SyncSender<T>(Arc<Chan<T>>);

        impl<T> SyncSender<T> {
            /// Non-blocking send with [`std::sync::mpsc::SyncSender::try_send`]
            /// semantics.
            pub fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
                super::super::sched_point();
                let mut st = self.0.lock();
                if !st.rx_alive {
                    return Err(TrySendError::Disconnected(v));
                }
                if st.queue.len() >= st.cap.expect("bounded channel has a cap") {
                    return Err(TrySendError::Full(v));
                }
                st.queue.push_back(v);
                drop(st);
                super::super::wake_point();
                Ok(())
            }

            /// Blocking send: parks until capacity frees or the
            /// receiver is dropped.
            pub fn send(&self, v: T) -> Result<(), SendError<T>> {
                super::super::sched_point();
                let mut v = Some(v);
                loop {
                    {
                        let mut st = self.0.lock();
                        if !st.rx_alive {
                            return Err(SendError(v.take().expect("send value present")));
                        }
                        if st.queue.len() < st.cap.expect("bounded channel has a cap") {
                            st.queue.push_back(v.take().expect("send value present"));
                            drop(st);
                            super::super::wake_point();
                            return Ok(());
                        }
                    }
                    super::super::block_point();
                }
            }
        }

        /// Receiving half of a model channel.
        pub struct Receiver<T>(Arc<Chan<T>>);

        impl<T> Receiver<T> {
            /// Non-blocking receive with [`std::sync::mpsc::Receiver::try_recv`]
            /// semantics.
            pub fn try_recv(&self) -> Result<T, TryRecvError> {
                super::super::sched_point();
                let mut st = self.0.lock();
                match st.queue.pop_front() {
                    Some(v) => {
                        drop(st);
                        super::super::wake_point();
                        Ok(v)
                    }
                    None if st.senders == 0 => Err(TryRecvError::Disconnected),
                    None => Err(TryRecvError::Empty),
                }
            }

            /// Blocking receive: parks until a message arrives or all
            /// senders are dropped.
            pub fn recv(&self) -> Result<T, RecvError> {
                super::super::sched_point();
                loop {
                    {
                        let mut st = self.0.lock();
                        if let Some(v) = st.queue.pop_front() {
                            drop(st);
                            super::super::wake_point();
                            return Ok(v);
                        }
                        if st.senders == 0 {
                            return Err(RecvError);
                        }
                    }
                    super::super::block_point();
                }
            }
        }

        impl<T> Clone for Sender<T> {
            fn clone(&self) -> Self {
                self.0.lock().senders += 1;
                Sender(Arc::clone(&self.0))
            }
        }

        impl<T> Clone for SyncSender<T> {
            fn clone(&self) -> Self {
                self.0.lock().senders += 1;
                SyncSender(Arc::clone(&self.0))
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let last = {
                    let mut st = self.0.lock();
                    st.senders -= 1;
                    st.senders == 0
                };
                if last {
                    // A blocked receiver must observe the disconnect.
                    super::super::wake_point();
                }
            }
        }

        impl<T> Drop for SyncSender<T> {
            fn drop(&mut self) {
                let last = {
                    let mut st = self.0.lock();
                    st.senders -= 1;
                    st.senders == 0
                };
                if last {
                    super::super::wake_point();
                }
            }
        }

        impl<T> Drop for Receiver<T> {
            fn drop(&mut self) {
                self.0.lock().rx_alive = false;
                // Blocked senders must observe the disconnect.
                super::super::wake_point();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicU64};
    use super::sync::mpsc;
    use std::collections::BTreeSet;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

    /// The canonical lost-update race: two threads doing a non-atomic
    /// read-modify-write. An exhaustive explorer must observe both the
    /// interleaved outcome (1) and the serialized one (2).
    #[test]
    fn explores_the_lost_update_interleaving() {
        let outcomes: Arc<Mutex<BTreeSet<u64>>> = Arc::new(Mutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        super::run(move || {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        let v = n.load(Ordering::Acquire);
                        n.store(v + 1, Ordering::Release);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            sink.lock()
                .unwrap()
                .insert(Arc::try_unwrap(n).unwrap().into_inner());
        });
        let seen = outcomes.lock().unwrap().clone();
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![1, 2],
            "exploration must reach both the racy and serialized outcomes"
        );
    }

    /// `Relaxed` accesses are commutative counters by policy and do
    /// not branch the schedule: a two-thread relaxed fetch_add model
    /// explores exactly the schedules spawn/join force — and the
    /// count still always comes out right under SC execution.
    #[test]
    fn relaxed_counters_do_not_explode_the_schedule() {
        super::run(|| {
            let n = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 2);
        });
    }

    /// try_recv racing a send must observe both Empty and Ok across
    /// the exploration.
    #[test]
    fn explores_both_sides_of_a_try_recv_race() {
        let outcomes: Arc<Mutex<BTreeSet<&'static str>>> = Arc::new(Mutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        super::run(move || {
            let (tx, rx) = mpsc::channel::<u32>();
            let t = super::thread::spawn(move || {
                tx.send(7).unwrap();
            });
            let first = match rx.try_recv() {
                Ok(7) => "ok",
                Ok(_) => "wrong-value",
                Err(mpsc::TryRecvError::Empty) => "empty",
                Err(mpsc::TryRecvError::Disconnected) => "disconnected",
            };
            t.join().unwrap();
            sink.lock().unwrap().insert(first);
        });
        let seen = outcomes.lock().unwrap().clone();
        assert!(
            seen.contains("ok") && seen.contains("empty"),
            "saw {seen:?}"
        );
    }

    /// A bounded channel's blocking send parks until the receiver
    /// drains; every schedule delivers all messages in order.
    #[test]
    fn bounded_blocking_send_unblocks_on_recv() {
        super::run(|| {
            let (tx, rx) = mpsc::sync_channel::<u32>(1);
            let t = super::thread::spawn(move || {
                for i in 0..3 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(rx.recv().unwrap());
            }
            t.join().unwrap();
            assert_eq!(got, vec![0, 1, 2]);
        });
    }

    /// Dropping the last sender wakes a blocked receiver with a
    /// disconnect, never a deadlock.
    #[test]
    fn receiver_sees_disconnect_when_senders_drop() {
        super::run(|| {
            let (tx, rx) = mpsc::channel::<u32>();
            let t = super::thread::spawn(move || {
                tx.send(1).unwrap();
                // tx dropped here.
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(mpsc::RecvError));
            t.join().unwrap();
        });
    }

    /// A genuine deadlock (receiver blocks forever, sender kept alive)
    /// is detected and reported, not hung.
    #[test]
    fn detects_deadlock() {
        let r = std::panic::catch_unwind(|| {
            super::run(|| {
                let (tx, rx) = mpsc::channel::<u32>();
                let _keep_alive = tx;
                let _ = rx.recv();
            });
        });
        let msg = *r
            .expect_err("deadlocked model must fail")
            .downcast::<String>()
            .expect("failure message is a String");
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }

    /// An assertion that only fires on one specific interleaving is
    /// still found: a flag-then-data publication where the data store
    /// can be reordered behind the reader's check.
    #[test]
    fn finds_a_one_in_n_schedule_bug() {
        let r = std::panic::catch_unwind(|| {
            super::run(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let data = Arc::new(AtomicU64::new(0));
                let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
                let t = super::thread::spawn(move || {
                    // Bug under exploration: flag raised before data.
                    f2.store(true, Ordering::Release);
                    d2.store(42, Ordering::Release);
                });
                if flag.load(Ordering::Acquire) {
                    assert_eq!(data.load(Ordering::Acquire), 42, "flag up, data missing");
                }
                t.join().unwrap();
            });
        });
        let msg = *r
            .expect_err("the buggy publication order must be caught")
            .downcast::<String>()
            .expect("failure message is a String");
        assert!(msg.contains("flag up, data missing"), "got: {msg}");
    }

    /// A spin-loop consumer (yield ladder) cannot livelock the
    /// explorer, and sees the message on every schedule.
    #[test]
    fn spin_wait_terminates_under_yield_reduction() {
        super::run(|| {
            let (tx, rx) = mpsc::channel::<u32>();
            let t = super::thread::spawn(move || {
                tx.send(9).unwrap();
            });
            let v = loop {
                match rx.try_recv() {
                    Ok(v) => break v,
                    Err(_) => super::thread::yield_now(),
                }
            };
            assert_eq!(v, 9);
            t.join().unwrap();
        });
    }
}
