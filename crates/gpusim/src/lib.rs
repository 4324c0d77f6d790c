//! # phonebit-gpusim
//!
//! An OpenCL-shaped **mobile GPU simulator** — the hardware substrate of the
//! PhoneBit reproduction (Chen et al., DATE 2020).
//!
//! The paper runs on physical Adreno 530/640 GPUs through OpenCL. This crate
//! replaces that testbed with:
//!
//! - [`device`] — profiles of the paper's Table I phones (Snapdragon 820 /
//!   855, with GPU ALU counts straight from the paper).
//! - [`buffer`] — budget bookings for device memory, reproducing Android OOM.
//! - [`ndrange`] / [`kernel`] / [`queue`] — OpenCL-style dispatch: kernels
//!   run **functionally** on the host (bit-exact) while an analytic cost
//!   model places them on a simulated timeline (§V-A.2's `uchar2`…`ulong16`
//!   widths are modeled, [`KernelProfile::vector_lanes`], not executed).
//! - [`cost`] — the latency/energy model; [`calib`] holds every fitted
//!   constant with its paper anchor.
//! - [`clock`] — the shared multi-queue device clock: N command queues on
//!   one GPU serialize or overlap per the device's compute-unit budget
//!   instead of each pretending to own the hardware.
//! - [`exec`] — the one host-parallel primitive, for kernel rows and
//!   serving streams.
//!
//! # Examples
//!
//! ```
//! use phonebit_gpusim::{
//!     calib::ExecutorClass, device::DeviceProfile, kernel::KernelProfile,
//!     ndrange::NdRange, queue::CommandQueue,
//! };
//!
//! let mut queue = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
//! let mut out = vec![0u32; 1024];
//! let profile = KernelProfile::new("double", NdRange::linear(1024))
//!     .int_ops(1024.0)
//!     .reads(4096.0)
//!     .writes(4096.0);
//! queue.launch(profile, || {
//!     for (i, v) in out.iter_mut().enumerate() {
//!         *v = (i as u32) * 2;
//!     }
//! });
//! assert_eq!(out[7], 14);
//! assert!(queue.elapsed_s() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod calib;
pub mod clock;
pub mod cost;
pub mod device;
pub mod exec;
pub mod kernel;
pub mod ndrange;
pub mod queue;

pub use buffer::{Buffer, Context, SimError};
pub use calib::ExecutorClass;
pub use clock::{DeviceClock, FaultBurst, FaultPlan, ThrottleEpoch};
pub use cost::{Contention, QueueLoad};
pub use device::{DeviceKind, DeviceProfile, Phone, UploadProfile};
pub use kernel::{KernelProfile, LaunchEvent, LaunchStats};
pub use ndrange::NdRange;
pub use queue::CommandQueue;
