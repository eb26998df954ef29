//! Emulated byte-addressable non-volatile memory.
//!
//! This crate stands in for the paper's Intel Optane PM testbed (8 NUMA
//! nodes, 6 TiB). It provides exactly the four properties the paper's
//! hardware assumptions require (§2.1):
//!
//! 1. **Unprivileged direct access** — any actor can load/store pages it has
//!    mapped, through [`NvmHandle`]; no trusted code is on the data path.
//! 2. **Enforced protection** — a per-page permission table (the "MMU") is
//!    consulted on every access and can only be programmed through the
//!    privileged interface ([`NvmDevice::mmu_map`]); this is what keeps
//!    malicious LibFSes inside their mapped pages.
//! 3. **Low latency** — modelled: ~300 ns reads, ~100 ns posted writes.
//! 4. **Byte addressability** — accesses are arbitrary `(page, offset, len)`
//!    ranges, plus 8-byte atomic persists for the 16-byte-atomic-update
//!    crash-consistency style of §4.4.
//!
//! On top of those, the crate models the two Optane behaviours the paper's
//! evaluation turns on (§4.5): per-node bandwidth that *collapses under
//! excessive concurrency* (especially for writes) and a penalty for
//! remote-NUMA access — the reasons opportunistic delegation wins — plus
//! optional cache-line-granularity persistence tracking with crash
//! injection for crash-consistency tests.

pub mod checksum;
pub mod device;
pub mod fault;
pub mod handle;
pub mod perf;
pub mod persist;
pub mod prot;
pub mod sanitize;
pub mod stats;
pub mod topology;
pub mod typestate;

pub use checksum::SeaHasher;
pub use device::{DeviceConfig, NvmDevice};
pub use fault::{CrashReport, FaultPlan};
pub use handle::NvmHandle;
pub use perf::BandwidthModel;
pub use sanitize::{Hazard, HazardKind, SanitizeReport};
pub use stats::{PathStats, PathStatsSnapshot, RegistryLockSite, HIST_BUCKETS};
pub use prot::{ActorId, PagePerm, ProtError, KERNEL_ACTOR};
pub use topology::{NodeId, PageId, Topology, CACHE_LINE, PAGE_SIZE};
pub use typestate::{Dirty, Durable, ExtentProof, Flushed, Span, Spans};
