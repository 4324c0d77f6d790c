//! Device memory: contexts with an allocation budget and typed buffers.
//!
//! Android caps how much memory one app may hold; the paper's Table III
//! shows CNNdroid dying with OOM on VGG16 because its float weights and
//! unrolled buffers blow that cap. The simulator reproduces this with a
//! [`Context`] holding a byte budget: allocations beyond the budget return
//! [`SimError::OutOfMemory`] instead of aborting, so frameworks can report
//! the failure exactly like the paper's table does.

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

    /// Creates a context with an effectively unlimited budget.
    pub fn unbounded(device: DeviceProfile) -> Self {
        Self::new(device, usize::MAX)
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

    /// The allocation budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed the
    /// budget; the context state is unchanged in that case.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> Result<Buffer<T>, SimError> {
        self.alloc_from(vec![T::default(); len])
    }

    /// Allocates a buffer initialized from host data.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed the
    /// budget.
    pub fn alloc_from<T: Copy>(&self, data: Vec<T>) -> Result<Buffer<T>, SimError> {
        let bytes = data.len() * std::mem::size_of::<T>();
        self.book(data, bytes)
    }

    /// Books `bytes` against the budget with **no host memory behind
    /// them**: an empty buffer whose [`Buffer::byte_len`] is `bytes`, which
    /// it returns when dropped. A dry run holds these where an executing
    /// one holds real buffers, so both answer to the same budget.
    ///
    /// # Errors
    ///
    /// As [`Context::alloc`].
    pub fn reserve(&self, bytes: usize) -> Result<Buffer<u8>, SimError> {
        self.book(Vec::new(), bytes)
    }

    /// Charges `bytes` to the budget and wraps `data` as the buffer that
    /// gives them back.
    fn book<T: Copy>(&self, data: Vec<T>, bytes: usize) -> Result<Buffer<T>, SimError> {
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
            data,
            bytes,
            mem: Arc::clone(&self.mem),
        })
    }

    /// Checks whether an additional `bytes` would fit without allocating.
    pub fn would_fit(&self, bytes: usize) -> bool {
        self.used_bytes().saturating_add(bytes) <= self.budget
    }
}

/// A typed device buffer; dropping it returns its bytes to the context.
#[derive(Debug)]
pub struct Buffer<T: Copy> {
    data: Vec<T>,
    bytes: usize,
    mem: Arc<MemAccounting>,
}

impl<T: Copy> Buffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Read-only view of device memory.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of device memory.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies host data into the buffer (`clEnqueueWriteBuffer` analogue).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn write(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.data.len(), "write length mismatch");
        self.data.copy_from_slice(src);
    }

    /// Copies the buffer back to host memory (`clEnqueueReadBuffer`).
    pub fn read(&self) -> Vec<T> {
        self.data.clone()
    }
}

impl<T: Copy> Drop for Buffer<T> {
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
        let a = c.alloc::<f32>(64).unwrap(); // 256 B
        assert_eq!(c.used_bytes(), 256);
        let b = c.alloc::<u8>(512).unwrap();
        assert_eq!(c.used_bytes(), 768);
        drop(a);
        assert_eq!(c.used_bytes(), 512);
        assert_eq!(c.peak_bytes(), 768);
        drop(b);
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.peak_bytes(), 768);
        // A reservation books bytes the same way, with nothing behind them.
        let r = c.reserve(1024).unwrap();
        assert_eq!((r.len(), r.byte_len(), c.used_bytes()), (0, 1024, 1024));
        assert!(c.reserve(1).is_err());
        drop(r);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oom_is_an_error_not_a_panic() {
        let c = ctx(100);
        let err = c.alloc::<f32>(100).unwrap_err();
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
        // Failed allocation leaves accounting untouched.
        assert_eq!(c.used_bytes(), 0);
        assert!(c.alloc::<u8>(100).is_ok());
    }

    #[test]
    fn would_fit_predicts_alloc() {
        let c = ctx(1000);
        assert!(c.would_fit(1000));
        assert!(!c.would_fit(1001));
        let _b = c.alloc::<u8>(600).unwrap();
        assert!(c.would_fit(400));
        assert!(!c.would_fit(401));
    }

    #[test]
    fn buffer_write_read_round_trip() {
        let c = ctx(4096);
        let mut b = c.alloc::<i32>(4).unwrap();
        b.write(&[1, 2, 3, 4]);
        assert_eq!(b.read(), vec![1, 2, 3, 4]);
        b.as_mut_slice()[0] = 9;
        assert_eq!(b.as_slice()[0], 9);
    }

    #[test]
    fn contexts_share_accounting_when_cloned() {
        let c = ctx(1000);
        let c2 = c.clone();
        let _b = c.alloc::<u8>(700).unwrap();
        assert_eq!(c2.used_bytes(), 700);
        assert!(c2.alloc::<u8>(400).is_err());
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
