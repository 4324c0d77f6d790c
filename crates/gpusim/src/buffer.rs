//! Device memory: contexts with an allocation budget and the bookings
//! charged against it.
//!
//! Android caps how much memory one app may hold; the paper's Table III
//! shows CNNdroid dying with OOM on VGG16 because its float weights and
//! unrolled buffers blow that cap. The simulator reproduces this with a
//! [`Context`] holding a byte budget: a booking beyond the budget returns
//! [`SimError::OutOfMemory`] instead of aborting, so frameworks can report
//! the failure exactly like the paper's table does. A booking is bytes, not
//! memory: the kernels run on host buffers their callers own, so an
//! executing engine and a dry run book the same way.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::device::DeviceProfile;

/// Errors surfaced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An allocation exceeded the context's memory budget.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes already allocated.
        in_use: usize,
        /// Budget in bytes.
        budget: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory {
                requested,
                in_use,
                budget,
            } => write!(
                f,
                "out of memory: requested {requested} B with {in_use} B in use (budget {budget} B)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Default)]
struct MemAccounting {
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// An allocation context bound to one device, enforcing a memory budget.
///
/// Cloning a context shares the accounting (like cloning an `Arc`).
#[derive(Debug, Clone)]
pub struct Context {
    device: DeviceProfile,
    budget: usize,
    mem: Arc<MemAccounting>,
}

impl Context {
    /// Creates a context with the given budget in bytes.
    pub fn new(device: DeviceProfile, budget_bytes: usize) -> Self {
        Self {
            device,
            budget: budget_bytes,
            mem: Arc::new(MemAccounting::default()),
        }
    }

    /// The device this context allocates for.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.mem.used.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.mem.peak.load(Ordering::Relaxed)
    }

    /// Books `bytes` against the budget with **no host memory behind
    /// them**: a [`Buffer`] whose [`Buffer::byte_len`] is `bytes`, which it
    /// returns when dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the booking would exceed the
    /// budget; the context state is unchanged in that case.
    pub fn reserve(&self, bytes: usize) -> Result<Buffer, SimError> {
        let mut cur = self.mem.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.budget {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    in_use: cur,
                    budget: self.budget,
                });
            }
            match self.mem.used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.mem.peak.fetch_max(next, Ordering::Relaxed);
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        Ok(Buffer {
            bytes,
            mem: Arc::clone(&self.mem),
        })
    }
}

/// A device-memory booking; dropping it returns its bytes to the context.
#[derive(Debug)]
pub struct Buffer {
    bytes: usize,
    mem: Arc<MemAccounting>,
}

impl Buffer {
    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        self.mem.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(budget: usize) -> Context {
        Context::new(DeviceProfile::adreno_530(), budget)
    }

    #[test]
    fn alloc_tracks_usage_and_peak() {
        let c = ctx(1024);
        let a = c.reserve(256).unwrap();
        assert_eq!((a.byte_len(), c.used_bytes()), (256, 256));
        let b = c.reserve(512).unwrap();
        assert_eq!(c.used_bytes(), 768);
        drop(a);
        assert_eq!(c.used_bytes(), 512);
        assert_eq!(c.peak_bytes(), 768);
        drop(b);
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.peak_bytes(), 768);
    }

    #[test]
    fn oom_is_an_error_not_a_panic() {
        let c = ctx(100);
        let err = c.reserve(400).unwrap_err();
        match err {
            SimError::OutOfMemory {
                requested,
                in_use,
                budget,
            } => {
                assert_eq!(requested, 400);
                assert_eq!(in_use, 0);
                assert_eq!(budget, 100);
            }
        }
        // A failed booking leaves accounting untouched.
        assert_eq!(c.used_bytes(), 0);
        assert!(c.reserve(100).is_ok());
    }

    #[test]
    fn reserve_fits_up_to_the_budget() {
        let c = ctx(1000);
        let _b = c.reserve(600).unwrap();
        assert!(c.reserve(401).is_err());
        let _r = c.reserve(400).unwrap();
        assert_eq!(c.used_bytes(), 1000);
        assert!(c.reserve(1).is_err());
        assert!(c.reserve(0).is_ok());
    }

    #[test]
    fn contexts_share_accounting_when_cloned() {
        let c = ctx(1000);
        let c2 = c.clone();
        let _b = c.reserve(700).unwrap();
        assert_eq!(c2.used_bytes(), 700);
        assert!(c2.reserve(400).is_err());
    }

    #[test]
    fn display_of_oom_error() {
        let e = SimError::OutOfMemory {
            requested: 4,
            in_use: 2,
            budget: 5,
        };
        let s = e.to_string();
        assert!(s.contains("out of memory") && s.contains("4 B"));
    }
}
