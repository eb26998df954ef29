//! Baseline NVM file systems the paper compares against (§6.1):
//! ext4-DAX (with and without RAID0), PMFS, NOVA, WineFS, OdinFS, SplitFS
//! and Strata — reimplemented as structurally-faithful models over the
//! same emulated device and virtual-time runtime as ArckFS.
//!
//! Each baseline is the shared [`BaselineFs`] core specialized by an
//! [`FsProfile`]: the profile decides where the system serializes (global
//! journal vs per-CPU, global vs per-CPU allocators, the VFS chassis's
//! global dcache-modification and rename locks) and what each operation
//! pays (kernel traps, journal transactions, per-inode log appends,
//! Strata digestion, SplitFS's split user/kernel paths). File data is
//! stored for real in the emulated NVM, so LevelDB and Filebench run
//! bit-faithfully on every baseline.

pub mod chassis;
pub mod profile;
pub mod simplefs;

use std::sync::Arc;

use trio_kernel::delegation::DelegationPool;
use trio_nvm::NvmDevice;

pub use profile::{AllocModel, DataPath, FsProfile, JournalModel, NodePolicy};
pub use simplefs::BaselineFs;

/// Names of all baselines, in the paper's usual presentation order.
pub const BASELINE_NAMES: [&str; 8] =
    ["ext4", "ext4-RAID0", "PMFS", "NOVA", "WineFS", "OdinFS", "SplitFS", "Strata"];

/// Builds a baseline by name. For `"OdinFS"` supply a started delegation
/// pool (it is ignored by the others).
///
/// # Panics
///
/// Panics on an unknown name — callers iterate [`BASELINE_NAMES`].
pub fn build(
    name: &str,
    dev: Arc<NvmDevice>,
    delegation: Option<Arc<DelegationPool>>,
) -> Arc<BaselineFs> {
    let profile = match name {
        "ext4" => FsProfile::ext4(),
        "ext4-RAID0" => FsProfile::ext4_raid0(),
        "PMFS" => FsProfile::pmfs(),
        "NOVA" => FsProfile::nova(),
        "WineFS" => FsProfile::winefs(),
        "OdinFS" => FsProfile::odinfs(),
        "SplitFS" => FsProfile::splitfs(),
        "Strata" => FsProfile::strata(),
        other => panic!("unknown baseline {other:?}"),
    };
    let delegation = if name == "OdinFS" { delegation } else { None };
    BaselineFs::format(dev, profile, delegation)
}
