//! Minimal `parking_lot`-style wrappers over `std::sync` primitives.
//!
//! The workspace must build with **zero external registry access**, so the
//! `parking_lot` crate cannot be a dependency. This module provides the small
//! API surface the codebase actually uses — `Mutex::lock`, `RwLock::read`,
//! `RwLock::write` returning guards directly (no `Result`) — backed by the
//! standard library. Poisoning is deliberately ignored: a panic while holding
//! a lock in this codebase is a test failure in its own right, and the
//! fault-injection harness intentionally aborts runs mid-operation and then
//! re-opens state from *disk*, never through a poisoned in-memory lock.

use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Applies `f` to every item on a scoped worker pool of at most `threads`
/// OS threads, returning the outputs **in item order**.
///
/// This is the workspace's only fan-out primitive (no rayon: the build is
/// offline). Work is distributed by an atomic next-item cursor, so long and
/// short tasks share the pool without static partitioning; determinism is
/// preserved because output slot `i` always holds `f(items[i])` regardless
/// of which worker ran it. With `threads <= 1` (or one item) everything runs
/// inline on the caller's thread — the sequential semantics are *identical*,
/// which the parallel auditor's differential tests rely on.
///
/// Threads are scoped (`std::thread::scope`), so `f` may borrow from the
/// caller's stack. A panic in any task propagates to the caller after the
/// scope joins.
pub fn parallel_map<I, O, F>(threads: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each slot carries its input in and its output back; the mutex is
    // uncontended (one worker claims a slot exactly once via the cursor).
    let slots: Vec<Mutex<(Option<I>, Option<O>)>> =
        items.into_iter().map(|i| Mutex::new((Some(i), None))).collect();
    let next = &AtomicUsize::new(0);
    let f = &f;
    let slots_ref = &slots;
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots_ref[i].lock().0.take().expect("slot claimed once");
                let out = f(item);
                slots_ref[i].lock().1 = Some(out);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().1.expect("worker completed slot")).collect()
}

/// A mutex whose `lock()` returns the guard directly, ignoring poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable paired with [`Mutex`], ignoring poisoning like the
/// rest of this module. Used by the engine's group-commit pipeline to park
/// follower committers while a leader flushes the WAL batch, and by the RPC
/// client pool to park callers until a connection is free.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Blocks until notified, releasing the guard while parked.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes one parked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all parked waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A readers-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new rwlock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire a read guard without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire a write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_notifies_waiter() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [0, 1, 2, 4, 8] {
            let out = parallel_map(threads, items.clone(), |x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_map_runs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // With 4 threads and 4 sleeping tasks, at least two tasks must
        // overlap (high-water mark of in-flight tasks > 1).
        let inflight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        parallel_map(4, vec![(); 4], |()| {
            let cur = inflight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(cur, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            inflight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "tasks never overlapped");
    }

    #[test]
    fn try_lock_contention() {
        let m = Mutex::new(0u8);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
