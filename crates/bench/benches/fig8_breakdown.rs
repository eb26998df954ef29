//! **Figure 8** — breakdown of ArckFS's sharing cost into map, unmap,
//! verification, and auxiliary-state rebuilding.
//!
//! Paper shape: for `4KB-write` on the large file, mapping+unmapping
//! contribute ~99% of the transfer overhead (page-table programming over
//! 262K pages); for `create-100`, verification dominates (~81%) with
//! aux-rebuild second (~12%).

use trio_bench::{run_sharing_create, run_sharing_write, scale, Sharers};

fn print_breakdown(label: &str, map: u64, unmap: u64, verify: u64, rebuild: u64) {
    let total = (map + unmap + verify + rebuild).max(1) as f64;
    println!(
        "{label:<22} map {:>5.1}%  unmap {:>5.1}%  verifier {:>5.1}%  aux-rebuild {:>5.1}%",
        map as f64 / total * 100.0,
        unmap as f64 / total * 100.0,
        verify as f64 / total * 100.0,
        rebuild as f64 / total * 100.0
    );
}

fn main() {
    let s = scale();
    println!("# Figure 8: breakdown of ArckFS's sharing cost (scale 1/{s})");
    let big = (1u64 << 30) / s as u64;

    let w = run_sharing_write(big, 60_000, false);
    print_breakdown(
        &format!("4KB-write {}MB", big >> 20),
        w.phases.map_ns,
        w.phases.unmap_ns,
        w.phases.verify_ns + w.phases.checkpoint_ns,
        w.rebuild_ns,
    );

    // The paper's row, and the same loop with nobody else writing: what
    // is left when no hand-over is a transfer (DESIGN.md §22).
    let rows = [("create-100", Sharers::Untrusted), ("create-100 sole", Sharers::Sole)];
    for (label, sharers) in rows {
        let c = run_sharing_create(100, 400, sharers);
        print_breakdown(
            label,
            c.phases.map_ns,
            c.phases.unmap_ns,
            c.phases.verify_ns + c.phases.checkpoint_ns,
            c.rebuild_ns,
        );
        println!("{:<22} aux_reuses {}  aux_rebuilds {}", "", c.aux_reuses, c.aux_rebuilds);
    }
}
