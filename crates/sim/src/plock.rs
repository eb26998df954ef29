//! Minimal `parking_lot`-compatible locks built on `std::sync`.
//!
//! The repository originally depended on the `parking_lot` crate for the
//! *real* (wall-clock) locks that protect shared payloads underneath the
//! virtual-time protocol. To keep the workspace self-contained and buildable
//! offline, this module re-implements the small API subset the code base
//! uses — non-poisoning `lock()`/`read()`/`write()` that return guards
//! directly — on top of the standard library. Poisoned locks are recovered transparently: the
//! simulation has its own panic propagation (the scheduler aborts every
//! sim-thread on the first panic), so poisoning carries no extra signal.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning API.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the payload.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the calling OS thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { g: self.inner.lock().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard { g: p.into_inner() }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    g: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A readers–writer lock with `parking_lot`'s non-poisoning API.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new readers–writer lock.
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the payload.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { g: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Attempts shared access without blocking: `None` while a writer
    /// holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard { g: p.into_inner() }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { g: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Mutable access through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    g: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    g: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        // A poisoned std mutex would error here; plock recovers.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }
}
