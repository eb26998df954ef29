//! **Figure 6** — data-operation throughput vs thread count, on one and
//! eight NUMA nodes, for 4 KiB and 2 MiB reads and writes.
//!
//! Paper shapes to reproduce: on one node every FS rises to the node's
//! bandwidth ceiling and then collapses under excessive concurrency; on
//! eight nodes only OdinFS and ArckFS keep scaling (delegation bounds
//! per-node writers and stripes big I/O), with ArckFS ahead of OdinFS
//! thanks to kernel bypass; ext4(RAID0) scales 2 MiB reads but not 4 KiB.

use std::sync::Arc;

use trio_bench::{eight_node_threads, one_node_threads, print_row, print_thread_header, scale, World};
use trio_workloads::fio::{Fio, FioOp};

fn panel(title: &str, fs_list: &[&str], nodes: usize, block: usize, op: FioOp, threads: &[usize]) {
    print_thread_header(title, threads);
    #[cfg(feature = "obs")]
    let mut obs = trio_obs::ObsSnapshot::default();
    let max_threads = *threads.iter().max().unwrap();
    for fs in fs_list {
        let mut vals = Vec::new();
        let mut top_stats = None;
        for &t in threads {
            // Budget: keep per-thread footprint bounded at high counts.
            let file_bytes =
                (((1u64 << 30) / scale() as u64).min(8 << 20)).max(4 * block as u64);
            let ops = if block >= 1 << 20 { 8 } else { 192 };
            let pages_per_node =
                (max_threads * 2 * file_bytes as usize / 4096 / nodes).max(16 * 1024);
            let world = World::build(fs, nodes, pages_per_node);
            let stats = world.path_stats();
            #[cfg(feature = "obs")]
            let recorder = world.recorder();
            let wl = Arc::new(Fio { op, block, file_bytes, ops_per_thread: ops });
            vals.push(world.measure(wl, t, 42).gib_per_sec());
            #[cfg(feature = "obs")]
            obs.add(&recorder.get().expect("measured").snapshot());
            if t == max_threads {
                top_stats = stats.map(|s| s.snapshot());
            }
        }
        print_row(fs, &vals, "GiB/s");
        if let Some(snap) = top_stats {
            println!("#   {fs} @{max_threads}t  {}", snap.summary_line());
        }
    }
    // Per-stage latency breakdown for the whole panel (all FSes, all
    // rungs); EXPERIMENTS.md's fig6 table reads the (f) panel of this.
    #[cfg(feature = "obs")]
    for line in obs.table_lines() {
        println!("# obs {line}");
    }
}

fn main() {
    println!("# Figure 6: fio throughput scaling (scale 1/{})", scale());
    let one = one_node_threads();
    let eight = eight_node_threads();

    let one_fs = ["ext4", "PMFS", "NOVA", "WineFS", "SplitFS", "ArckFS-nd"];
    panel("(a) 4KB read, 1 NUMA node", &one_fs, 1, 4096, FioOp::Read, &one);
    panel("(b) 4KB write, 1 NUMA node", &one_fs, 1, 4096, FioOp::Write, &one);
    panel("(c) 2MB read, 1 NUMA node", &one_fs, 1, 2 << 20, FioOp::Read, &one);
    panel("(d) 2MB write, 1 NUMA node", &one_fs, 1, 2 << 20, FioOp::Write, &one);

    let eight_fs =
        ["ext4", "ext4-RAID0", "PMFS", "NOVA", "WineFS", "SplitFS", "OdinFS", "ArckFS"];
    panel("(e) 4KB read, 8 NUMA nodes", &eight_fs, 8, 4096, FioOp::Read, &eight);
    panel("(f) 4KB write, 8 NUMA nodes", &eight_fs, 8, 4096, FioOp::Write, &eight);
    panel("(g) 2MB read, 8 NUMA nodes", &eight_fs, 8, 2 << 20, FioOp::Read, &eight);
    panel("(h) 2MB write, 8 NUMA nodes", &eight_fs, 8, 2 << 20, FioOp::Write, &eight);

    // Read variant of the delegated lane: 64 KiB is past the delegation
    // knee at every rung, so the ArckFS row here is pure delegated-read
    // traffic through the grant-window machinery (the `deleg … r` term of
    // the summary line must be the whole transfer).
    panel(
        "(i) 64KB read, 8 NUMA nodes (delegated lane)",
        &["OdinFS", "ArckFS"],
        8,
        64 * 1024,
        FioOp::Read,
        &eight,
    );
}
