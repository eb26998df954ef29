//! **Table 3** — sharing cost when two untrusted processes concurrently
//! update the same file or directory.
//!
//! Paper rows: 4KB-write over a 2 MB and a 1 GB shared file (GiB/s), and
//! create in a shared directory of 10 and 100 entries (µs/op), for NOVA
//! (kernel FS baseline), ArckFS (two untrusted LibFSes with the full
//! lease/verify/transfer protocol), and ArckFS in a trust group (one
//! shared LibFS, no transfer cost). Paper shape: negligible overhead on
//! the small file, large overhead (map/unmap dominated) on the big file,
//! verification-dominated overhead for create-100, and trust groups
//! eliminating all of it.
//!
//! Beside the paper's contended create-100 row sits the same loop run by
//! one LibFS alone ("sole writer"): every map after the first is a re-map
//! by the actor that last wrote, which keeps its auxiliary state and pays
//! neither rebuild nor checkpoint (DESIGN.md §22).

use trio_bench::{run_sharing_create, run_sharing_nova, run_sharing_write, scale, Sharers};

fn main() {
    let s = scale();
    println!("# Table 3: sharing cost, two concurrent updaters (scale 1/{s})");
    let small = 2u64 << 20;
    let big = (1u64 << 30) / s as u64;
    let write_ops = 150_000u64;
    let create_ops = 400u64;

    println!("\n{:<22} {:>12} {:>12} {:>12}", "workload", "NOVA", "ArckFS", "ArckFS-tg");

    let nova = run_sharing_nova(Some(small), 0, write_ops);
    let arck = run_sharing_write(small, write_ops, false);
    let tg = run_sharing_write(small, write_ops, true);
    println!(
        "{:<22} {:>9.2}GiB/s {:>9.2}GiB/s {:>9.2}GiB/s",
        "4KB-write 2MB",
        nova.gib_per_sec(),
        arck.gib_per_sec(),
        tg.gib_per_sec()
    );

    let nova = run_sharing_nova(Some(big), 0, write_ops);
    let arck = run_sharing_write(big, write_ops, false);
    let tg = run_sharing_write(big, write_ops, true);
    println!(
        "{:<22} {:>9.2}GiB/s {:>9.2}GiB/s {:>9.2}GiB/s",
        format!("4KB-write {}MB", big >> 20),
        nova.gib_per_sec(),
        arck.gib_per_sec(),
        tg.gib_per_sec()
    );

    let nova = run_sharing_nova(None, 10, create_ops);
    let arck = run_sharing_create(10, create_ops, Sharers::Untrusted);
    let tg = run_sharing_create(10, create_ops, Sharers::TrustGroup);
    println!(
        "{:<22} {:>10.1}us {:>10.1}us {:>10.1}us",
        "create, 10 files",
        nova.usec_per_op(),
        arck.usec_per_op(),
        tg.usec_per_op()
    );

    let nova = run_sharing_nova(None, 100, create_ops);
    let arck = run_sharing_create(100, create_ops, Sharers::Untrusted);
    let tg = run_sharing_create(100, create_ops, Sharers::TrustGroup);
    println!(
        "{:<22} {:>10.1}us {:>10.1}us {:>10.1}us",
        "create, 100 files",
        nova.usec_per_op(),
        arck.usec_per_op(),
        tg.usec_per_op()
    );
    let sole = run_sharing_create(100, create_ops, Sharers::Sole);
    println!(
        "{:<22} {:>12} {:>10.1}us {:>12}   (per-op unmap; aux reused {}, rebuilt {})",
        "  ... sole writer",
        "-",
        sole.usec_per_op(),
        "-",
        sole.aux_reuses,
        sole.aux_rebuilds
    );
}
