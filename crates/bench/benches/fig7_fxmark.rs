//! **Figure 7** — FxMark metadata scalability (twelve panels, Table 2).
//!
//! Paper shapes: the baselines scale only MRPL/MRDL (everything else hits
//! VFS's global dcache-modification and rename locks or per-dentry
//! refcount convoys); ArckFS scales DWTL and the read-dominated panels
//! linearly, keeps creates/unlinks high, and degrades on the shared-
//! directory write panels only through its own hash-table/tail contention.

use std::sync::Arc;

use trio_bench::{eight_node_threads, print_row, print_thread_header, World};
use trio_workloads::fxmark::{FxMark, ALL_FXMARK};

const PAGES_PER_NODE: usize = 64 * 1024;

fn main() {
    println!("# Figure 7: FxMark metadata scalability");
    let threads = eight_node_threads();
    let fs_list = if trio_bench::full_run() {
        vec!["ext4", "ext4-RAID0", "PMFS", "NOVA", "WineFS", "SplitFS", "OdinFS", "ArckFS"]
    } else {
        vec!["ext4", "NOVA", "WineFS", "OdinFS", "ArckFS"]
    };
    for bench in ALL_FXMARK {
        print_thread_header(bench.name(), &threads);
        #[cfg(feature = "obs")]
        let mut obs = trio_obs::ObsSnapshot::default();
        for fs in &fs_list {
            let mut vals = Vec::new();
            let mut top_stats = None;
            let max_threads = *threads.iter().max().unwrap();
            for &t in &threads {
                // Bound total ops at high thread counts to keep runtime sane.
                let ops = (20_000 / t as u64).clamp(40, 400);
                let world = World::build(fs, 8, PAGES_PER_NODE);
                let stats = world.path_stats();
                #[cfg(feature = "obs")]
                let recorder = world.recorder();
                let wl = Arc::new(FxMark { bench, ops_per_thread: ops, pool_files: 64 });
                vals.push(world.measure(wl, t, 42).ops_per_usec());
                #[cfg(feature = "obs")]
                obs.add(&recorder.get().expect("measured").snapshot());
                if t == max_threads {
                    top_stats = stats.map(|s| s.snapshot());
                }
            }
            print_row(fs, &vals, "ops/us");
            if let Some(snap) = top_stats {
                println!("#   {fs} @{max_threads}t  {}", snap.summary_line());
            }
        }
        // Per-stage latency breakdown across the panel's delegated ops.
        #[cfg(feature = "obs")]
        for line in obs.table_lines() {
            println!("# obs {line}");
        }
    }
}
