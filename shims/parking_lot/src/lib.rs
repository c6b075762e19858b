//! Minimal std-backed stand-in for the `parking_lot` crate.
//!
//! The build environment has no crates.io access, so this shim provides the
//! exact API subset the workspace uses: `Mutex`, `RwLock` and `Condvar` with
//! parking_lot's non-poisoning signatures (`lock()` returns a guard, not a
//! `Result`). Poisoned std locks are transparently recovered — a panic while
//! holding a lock does not poison subsequent accesses, matching parking_lot
//! semantics.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutex with parking_lot's panic-free `lock()` signature.
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard returned by [`Mutex::lock`]. Holds the inner std guard in an
/// `Option` so [`Condvar`] can temporarily take it during waits.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// A reader–writer lock with parking_lot's panic-free signatures.
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken during wait");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken during wait");
        let (g, timed_out) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r.timed_out())
            }
        };
        guard.inner = Some(g);
        WaitTimeoutResult(timed_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn get_mut_reaches_the_value_without_locking() {
        let (mut m, mut l) = (Mutex::new(1), RwLock::new(2));
        // a leaked guard would block `lock`/`write` forever; the exclusive
        // borrow never looks at the lock state
        std::mem::forget(l.read());
        *m.get_mut() += 10;
        *l.get_mut() += 10;
        assert_eq!((*m.lock(), *l.read()), (11, 12));
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let t = std::thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g);
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn panic_while_locked_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0, "lock must stay usable after a panic");
    }
}
