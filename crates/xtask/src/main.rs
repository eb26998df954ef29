//! `cargo xtask` — in-tree developer tooling for the Trio reproduction.
//!
//! Subcommands:
//!
//! * `lint` — a project-specific static pass enforcing invariants `rustc`
//!   and clippy cannot see (DESIGN.md §13), rules below.
//! * `typestate-check` — the compile-fail gate for the typestate persist
//!   pipeline (DESIGN.md §18): `cargo check`s the
//!   `fixtures/typestate-fixture` crate once with no features (the
//!   well-typed pipeline must compile) and once per hazard feature
//!   (`hazard-publish-before-persist`, `hazard-missing-fence`,
//!   `hazard-missing-flush`), each of which must FAIL with a type error
//!   (`E0308`) — pinning that the ordering bugs the runtime sanitizer
//!   catches dynamically genuinely do not compile under the typed API.
//! * `lines [TREE]` — per crate under `crates/`, the Rust lines in `src/`
//!   that carry code: not blank, not comment-only, and before the file's
//!   first `#[cfg(test)]`. The size a simplicity change is measured by.
//!
//! Lint rules:
//!
//! * **no-std-sync** — every crate except `crates/sim` must block through
//!   `trio_sim::sync` so the deterministic scheduler observes (and the race
//!   detector clocks) every synchronization edge. A `std::sync` mutex or a
//!   `std::thread` spawn is invisible to both and silently breaks replay.
//! * **safety-comment** — every `unsafe` token needs a `// SAFETY:` comment
//!   within the three preceding lines.
//! * **flush-fence** — a persist `.flush(args…)` call site must be lexically
//!   paired with a `.fence(` / `fence_flushed` / `persist_dirty` /
//!   `write_u64_persist` / `publish_u64` within the next twelve lines, or
//!   carry an explicit `// lint: allow(flush-fence) <reason>` annotation.
//!   Method-chained and multi-line call shapes count as flush sites too:
//!   a receiver dot ending the previous line (`h.` ⏎ `flush(…)`) and a
//!   name/paren split (`h.flush` ⏎ `(…)`) are both recognized, so the
//!   lint agrees with the typestate API's notion of a flush site
//!   (`flush_dirty` is likewise a flush site, paired by its fence). A
//!   flush that never meets a fence is exactly the bug class the runtime
//!   sanitizer flags as `missing-fence`; this catches the easy cases at
//!   review time.
//! * **no-panic** — `crates/verifier/src` and `crates/kernel/src` process
//!   attacker-controlled bytes and must uphold the repair-or-reject
//!   contract (DESIGN.md §14): every failure becomes a `Violation` or an
//!   `FsError`, never a panic. `.unwrap()`, `.expect(…)` and `panic!(…)`
//!   are forbidden there; the rare justified site carries
//!   `// lint: allow(no-panic) <reason>`.
//! * **no-payload-copy** — the delegation submit path
//!   (`crates/kernel/src/delegation.rs`, `crates/core/src/file_ops.rs`)
//!   moves payloads by `GrantRef` window only (DESIGN.md §17); any byte
//!   materialization (`.to_vec()`, `.to_owned()`, `Vec::from(…)`,
//!   `Arc::from(…)`, `Box::from(…)`) re-introduces the memcpy the
//!   zero-copy architecture removed, and the perf gate pins
//!   `payload_copies == 0`. Destination buffers for reads are fine — the
//!   rule targets the source-payload constructors, not `vec![0u8; n]`.
//! * **raw-publish** — shipped library code (`crates/*/src`, excluding
//!   `crates/nvm` itself) must persist through the typestate pipeline
//!   (DESIGN.md §18): the untyped escape hatches `.publish_u64_raw(…)`
//!   and `.assume_durable(…)`, and the raw `.flush(args…)` / `.fence(…)`
//!   halves, are forbidden there. Test trees, benches and root-level
//!   integration tests stay free to use them (mutation harnesses
//!   deliberately construct hazards). `write_u64_persist` remains legal:
//!   it is a complete self-fencing single-word persist, not an ordering
//!   escape hatch.
//!
//! * **hot-path-registry** — modules annotated `lint: hot-path` (the
//!   grant table, the delegation pool) must never take the kernel's
//!   registry control lock: the mega-tenant scaling story (DESIGN.md §20)
//!   rests on steady-state alloc/free/grant paths staying off that lock,
//!   and the perf gate pins `registry_locks` near zero to prove it.
//!
//! * **no-random-state** — shipped library code (`crates/*/src`) builds no
//!   map or set on `RandomState`: `HashMap::new(`, `HashSet::new(`,
//!   `::with_capacity(` on either, and `RandomState` itself are findings.
//!   Every such map draws fresh hash keys, so its iteration order differs
//!   from run to run, and one loop over one reached the page allocator and
//!   the virtual clock (ROADMAP item 1). Use `trio_sim::DetHashMap` /
//!   `DetHashSet` (std's maps under fixed keys) or an ordered map.
//!
//! * **layout-door** — slot geometry and slot iteration live in
//!   `trio-layout` (DESIGN.md §3). In `crates/{kernel,verifier,core}/src` a
//!   hand-written walk over a directory page — `chunks_exact(DIRENT_SIZE)`,
//!   a `..DIRENTS_PER_PAGE` range — and a slot's byte offset
//!   (`.byte_off()`) are findings: each is a private copy of the format,
//!   and eight such copies had drifted apart on what a poisoned line costs.
//!   Read through `DirPage`, write through `DirentRef`.
//!
//! * **page-table-door** — an actor's PTEs are edited under that actor's
//!   page-table lock (DESIGN.md §20), which `crates/kernel/src/pagetable.rs`
//!   takes and nobody else can: in shipped library code outside it (and
//!   outside `crates/nvm`, whose interface it is) `.mmu_map(…)`,
//!   `.mmu_unmap(…)` and the device's `.revoke_actor(…)` are findings — a
//!   PTE write that skipped the lock can land after the unmap that was
//!   meant to undo it. The grant table's `revoke_actor` (receiver
//!   `grants()`) is a different function and exempt. In
//!   `crates/kernel/src`, `.reset_page(…)` and `.reset_page_sparing(…)`,
//!   which wipe a frame's protections for every actor at once, are
//!   findings outside `alloc.rs` (the allocator scrubs the frames it holds)
//!   and `pagetable.rs` (reclamation recycles through the door); the
//!   patrol's scrub of a free frame carries the one reasoned allow.
//!
//! Zero cost when observability is off is not a rule here: a lexical
//! check could only approximate it, so `scripts/verify.sh` reads it off
//! the built binary instead (no `trio_obs` symbol, DESIGN.md §15).
//!
//! Any rule can be suppressed per-site with `// lint: allow(<rule-id>)
//! <reason>` on the flagged line or up to two lines above it; the reason is
//! mandatory — a bare allow is itself reported.
//!
//! The scanner is deliberately lexical (comments, strings and char literals
//! are masked before token matching) rather than AST-based: the workspace
//! builds offline with zero third-party crates, so `syn` is unavailable.
//! The trade-off is documented in DESIGN.md §13; the rules are phrased so
//! that line-local matching is reliable in practice, and the fixture crate
//! under `fixtures/lint-fixture` pins the behaviour of every rule.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = match args.get(1) {
                Some(p) => PathBuf::from(p),
                None => workspace_root(),
            };
            run_lint(&root)
        }
        Some("typestate-check") => run_typestate_check(),
        Some("lines") => {
            let root = args.get(1).map_or_else(workspace_root, PathBuf::from);
            run_lines(&root)
        }
        Some(other) => {
            eprintln!(
                "xtask: unknown command `{other}` (expected `lint`, `typestate-check` or `lines`)"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint [TREE] | typestate-check | lines [TREE]>");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, derived from this crate's manifest dir
/// (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn run_lint(root: &Path) -> ExitCode {
    let (findings, scanned) = match lint_tree(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("xtask lint: OK ({scanned} files, 0 findings)");
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} finding(s) in {scanned} files", findings.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// lines: non-test code lines per crate
// ---------------------------------------------------------------------------

fn run_lines(root: &Path) -> ExitCode {
    let crates = match crate_lines(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask lines: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, n) in &crates {
        println!("{name:<12} {n:>6}");
    }
    println!("{:<12} {:>6}", "total", crates.iter().map(|c| c.1).sum::<usize>());
    ExitCode::SUCCESS
}

/// [`code_lines`] summed over each `crates/<name>/src`, sorted by name.
fn crate_lines(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let mut crates = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        let mut n = 0;
        for f in &files {
            n += code_lines(&std::fs::read_to_string(f)?);
        }
        let name = dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
        crates.push((name, n));
    }
    crates.sort();
    Ok(crates)
}

/// Lines of `src` that carry code: not blank once comments are masked, and
/// before the first `#[cfg(test)]` (the unit-test tail, as in the lint).
pub fn code_lines(src: &str) -> usize {
    mask_source(src)
        .lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter(|l| !l.trim().is_empty())
        .count()
}

// ---------------------------------------------------------------------------
// typestate-check: compile-fail gate for the persist pipeline
// ---------------------------------------------------------------------------

/// Hazard-class features of `fixtures/typestate-fixture`; each must make
/// the fixture fail to compile with a type error.
const TYPESTATE_HAZARDS: [&str; 3] =
    ["hazard-publish-before-persist", "hazard-missing-fence", "hazard-missing-flush"];

fn run_typestate_check() -> ExitCode {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("typestate-fixture")
        .join("Cargo.toml");
    // A dedicated target dir: the fixture is outside the workspace, and
    // sharing the main target dir would thrash its lock under `verify.sh`.
    let target_dir = workspace_root().join("target").join("typestate-fixture");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    let check = |features: Option<&str>| -> std::io::Result<(bool, String)> {
        let mut cmd = std::process::Command::new(&cargo);
        cmd.arg("check")
            .arg("--quiet")
            .arg("--manifest-path")
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&target_dir);
        if let Some(f) = features {
            cmd.arg("--features").arg(f);
        }
        let out = cmd.output()?;
        Ok((out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned()))
    };

    // 1. The well-typed pipeline must compile.
    match check(None) {
        Ok((true, _)) => println!("typestate-check: well-typed pipeline compiles"),
        Ok((false, err)) => {
            eprintln!("typestate-check: FAIL — well-typed fixture does not compile:\n{err}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("typestate-check: could not run cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    // 2. Each hazard class must be a type error (the whole point: the
    //    bugs the sanitizer catches at runtime don't compile).
    for hazard in TYPESTATE_HAZARDS {
        match check(Some(hazard)) {
            Ok((true, _)) => {
                eprintln!("typestate-check: FAIL — `{hazard}` compiled; the hazard is representable");
                return ExitCode::FAILURE;
            }
            Ok((false, err)) if err.contains("E0308") => {
                println!("typestate-check: {hazard} rejected (E0308)");
            }
            Ok((false, err)) => {
                eprintln!(
                    "typestate-check: FAIL — `{hazard}` failed for the wrong reason \
                     (expected a type mismatch E0308):\n{err}"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("typestate-check: could not run cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("typestate-check: OK (1 well-typed + {} compile-fail cases)", TYPESTATE_HAZARDS.len());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Stable rule identifiers, used in reports and in `lint: allow(<id>)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    NoStdSync,
    SafetyComment,
    FlushFence,
    NoPanic,
    PayloadMaterialize,
    RawPublish,
    HotPathRegistry,
    NoRandomState,
    LayoutDoor,
    PageTableDoor,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoStdSync => "no-std-sync",
            Rule::SafetyComment => "safety-comment",
            Rule::FlushFence => "flush-fence",
            Rule::NoPanic => "no-panic",
            Rule::PayloadMaterialize => "no-payload-copy",
            Rule::RawPublish => "raw-publish",
            Rule::HotPathRegistry => "hot-path-registry",
            Rule::NoRandomState => "no-random-state",
            Rule::LayoutDoor => "layout-door",
            Rule::PageTableDoor => "page-table-door",
        }
    }
}

/// One lint hit: file, 1-based line, rule, message.
#[derive(Debug)]
pub struct Finding {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule.id(), self.msg)
    }
}

/// Lints every `.rs` file under `root`, returning findings (sorted by path
/// then line) and the number of files scanned. Skips `target/`, `.git/` and
/// `fixtures/` subtrees.
pub fn lint_tree(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        lint_file(rel, &src, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((findings, files.len()))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which crate (under `crates/`) a workspace-relative path belongs to, if
/// any. Files outside `crates/` (root tests, examples, benches) return
/// `None` and get the default-deny treatment for every rule.
fn crate_of(rel: &Path) -> Option<String> {
    let mut it = rel.components();
    match it.next() {
        Some(c) if c.as_os_str() == "crates" => {
            it.next().map(|c| c.as_os_str().to_string_lossy().into_owned())
        }
        _ => None,
    }
}

fn lint_file(rel: &Path, src: &str, out: &mut Vec<Finding>) {
    let krate = crate_of(rel);
    let in_nvm = krate.as_deref() == Some("nvm");
    let in_sim = krate.as_deref() == Some("sim");
    let in_xtask = krate.as_deref() == Some("xtask");
    // The panic-freedom contract covers the code that parses
    // attacker-controlled bytes — not those crates' test trees.
    let no_panic_scope =
        rel.starts_with("crates/verifier/src") || rel.starts_with("crates/kernel/src");
    // Zero-copy delegation (DESIGN.md §17): the submit path hands workers a
    // `GrantRef` into granted pages; constructing an owned byte payload
    // here is the copy the grant-window architecture exists to remove.
    let payload_scope = rel == Path::new("crates/kernel/src/delegation.rs")
        || rel == Path::new("crates/core/src/file_ops.rs");
    // Shipped library code persists through the typestate pipeline only
    // (DESIGN.md §18); tests/benches keep the raw API for mutation
    // harnesses that deliberately construct hazards.
    let shipped = !in_xtask && shipped_src(rel);
    let raw_publish_scope = !in_nvm && shipped;
    // Above `trio-layout`, callers bring policy, not slot arithmetic.
    let layout_door_scope = no_panic_scope || rel.starts_with("crates/core/src");
    // An actor's PTEs are edited behind its page-table lock, which only
    // the kernel's `pagetable.rs` takes.
    let page_table_door_scope =
        shipped && !in_nvm && rel != Path::new("crates/kernel/src/pagetable.rs");
    // …and so does every other kernel scrub of a frame, which wipes the
    // PTEs of every actor at once, except the allocator's own.
    let door_calls: &[&str] = if rel.starts_with("crates/kernel/src")
        && rel != Path::new("crates/kernel/src/alloc.rs")
    {
        &["mmu_map", "mmu_unmap", "revoke_actor", "reset_page", "reset_page_sparing"]
    } else {
        &["mmu_map", "mmu_unmap", "revoke_actor"]
    };
    // A module that declares itself hot-path (raw source, so the marker
    // lives in its doc comment) has sworn off the registry control lock
    // entirely (DESIGN.md §20).
    let hot_path_scope = !in_xtask && src.contains("lint: hot-path");

    let masked = mask_source(src);
    let raw: Vec<&str> = src.lines().collect();
    let lines: Vec<&str> = masked.lines().collect();

    // Unit-test modules (`#[cfg(test)]` onward — conventionally the file
    // tail) are exempt from no-panic and no-std-sync: those contracts
    // cover shipped attacker-facing code, and tests legitimately unwrap
    // and use real threads to exercise the non-sim paths.
    let test_region =
        lines.iter().position(|l| l.contains("#[cfg(test)]")).unwrap_or(usize::MAX);

    for (i, line) in lines.iter().enumerate() {
        // R2: std::sync blocking primitives / std::thread outside crates/sim.
        // (Arc, Weak, OnceLock and atomics stay legal everywhere: they don't
        // block, so the deterministic scheduler doesn't need to see them.)
        if !in_sim && !in_xtask && i < test_region {
            if contains_word(line, "std") && line.contains("std::thread") {
                emit(out, rel, &raw, i, Rule::NoStdSync,
                    "`std::thread` is invisible to the deterministic scheduler; \
                     spawn through `SimRuntime` instead".to_string());
            } else if line.contains("std::sync") {
                for prim in ["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"] {
                    if contains_word(line, prim) {
                        emit(out, rel, &raw, i, Rule::NoStdSync, format!(
                            "`std::sync::{prim}` bypasses the virtual clock and the \
                             race detector; use the `trio_sim::sync` equivalent"
                        ));
                        break;
                    }
                }
            }
        }

        // R3: every `unsafe` token carries a nearby SAFETY comment.
        if contains_word(line, "unsafe") {
            let lo = i.saturating_sub(3);
            let documented = raw[lo..=i].iter().any(|l| l.contains("SAFETY:"));
            if !documented {
                emit(out, rel, &raw, i, Rule::SafetyComment,
                    "`unsafe` without a `// SAFETY:` comment within the three \
                     preceding lines".to_string());
            }
        }

        // R4: persist flush is paired with a fence. `.flush(` with arguments
        // is the persist signature `(page, off, len)`; zero-arg `.flush()`
        // (e.g. the LSM memtable flush) is a different API and exempt.
        // Multi-line/method-chained shapes (receiver dot on the previous
        // line, name/paren split across lines) count as flush sites too,
        // and `flush_dirty` is the typestate pipeline's flush site.
        if !in_nvm {
            let site = flush_call_site(&lines, i, "flush")
                .or_else(|| flush_call_site(&lines, i, "flush_dirty"));
            if let Some(zero_arg) = site {
                if !zero_arg {
                    let hi = (i + 12).min(lines.len() - 1);
                    let paired = lines[i..=hi].iter().any(|l| {
                        find_call(l, "fence").is_some()
                            || l.contains("fence_flushed")
                            || l.contains("persist_dirty")
                            || l.contains("write_u64_persist")
                            || l.contains("publish_u64")
                    });
                    if !paired {
                        emit(out, rel, &raw, i, Rule::FlushFence,
                            "flush with no `.fence(`/`fence_flushed`/`persist_dirty`/\
                             `write_u64_persist`/`publish_u64` within 12 lines; the \
                             line may never become durable \
                             (runtime hazard: missing-fence)".to_string());
                    }
                }
            }
        }

        // R5: the verifier and kernel sources are panic-free — attacker
        // bytes must end in a Violation/FsError, never an abort.
        if no_panic_scope && i < test_region {
            for m in ["unwrap", "expect"] {
                if find_call(line, m).is_some() {
                    emit(out, rel, &raw, i, Rule::NoPanic, format!(
                        "`.{m}(…)` can panic on attacker-controlled state; return a \
                         `Violation`/`FsError` instead (repair-or-reject contract)"
                    ));
                }
            }
            if macro_invocation(line, "panic").is_some() {
                emit(out, rel, &raw, i, Rule::NoPanic,
                    "`panic!` aborts the kernel on attacker-controlled state; return \
                     a `Violation`/`FsError` instead (repair-or-reject contract)"
                        .to_string());
            }
        }

        // R6: no payload materialization on the delegation submit path.
        // Reads still need destination buffers (`vec![0u8; n]` is fine);
        // what's forbidden is constructing an *owned copy of the source
        // payload* instead of passing the grant window through.
        if payload_scope {
            for m in ["to_vec", "to_owned"] {
                if find_call(line, m).is_some() {
                    emit(out, rel, &raw, i, Rule::PayloadMaterialize, format!(
                        "`.{m}(…)` materializes a payload on the zero-copy \
                         delegation path; pass a `GrantRef` window instead \
                         (perf gate pins payload_copies == 0)"
                    ));
                }
            }
            for m in ["Vec::from", "Arc::from", "Box::from"] {
                if line.contains(&format!("{m}(")) {
                    emit(out, rel, &raw, i, Rule::PayloadMaterialize, format!(
                        "`{m}(…)` materializes a payload on the zero-copy \
                         delegation path; pass a `GrantRef` window instead \
                         (perf gate pins payload_copies == 0)"
                    ));
                }
            }
        }

        // R7: shipped library code must use the typestate persist pipeline;
        // the untyped escape hatches and the raw flush/fence halves are
        // reserved for `trio-nvm` internals and test harnesses.
        if raw_publish_scope && i < test_region {
            for m in ["publish_u64_raw", "assume_durable"] {
                if find_call(line, m).is_some() {
                    emit(out, rel, &raw, i, Rule::RawPublish, format!(
                        "`.{m}(…)` is the untyped persist escape hatch; use the \
                         typestate pipeline (write_dirty → flush_dirty → \
                         fence_flushed → publish_u64) so ordering is \
                         compiler-checked (DESIGN.md §18)"
                    ));
                }
            }
            if flush_call_site(&lines, i, "flush") == Some(false) {
                emit(out, rel, &raw, i, Rule::RawPublish,
                    "raw `.flush(page, off, len)` carries no ordering evidence; \
                     use `flush_dirty`/`persist_dirty` so the Durable witness \
                     is compiler-checked (DESIGN.md §18)".to_string());
            }
            if find_call(line, "fence").is_some() {
                emit(out, rel, &raw, i, Rule::RawPublish,
                    "raw `.fence()` mints no Durable witness; use \
                     `fence_flushed`/`persist_dirty` so ordering is \
                     compiler-checked (DESIGN.md §18)".to_string());
            }
        }

        // R8: modules annotated `lint: hot-path` never take the kernel's
        // registry control lock — neither directly nor through the
        // instrumented `reg_lock` wrapper. The mega-tenant scaling gate
        // rests on steady-state paths staying off that lock.
        if hot_path_scope && i < test_region {
            for pat in ["registry.lock(", ".reg_lock("] {
                if line.contains(pat) {
                    emit(out, rel, &raw, i, Rule::HotPathRegistry, format!(
                        "`{pat}…)` in a `lint: hot-path` module; the registry \
                         control lock is banned on steady-state paths \
                         (DESIGN.md §20 — perf gate pins registry_locks ≈ 0)"
                    ));
                    break;
                }
            }
        }

        // R9: no map or set keyed by `RandomState` in shipped library
        // code; its iteration order is not a function of the seed.
        if shipped && i < test_region {
            let ctor = ["HashMap", "HashSet"].iter().any(|ty| {
                ["::new(", "::with_capacity("]
                    .iter()
                    .any(|call| contains_word(line, ty) && line.contains(&format!("{ty}{call}")))
            });
            if ctor || contains_word(line, "RandomState") {
                emit(out, rel, &raw, i, Rule::NoRandomState,
                    "a `RandomState` map iterates in a different order every run; use \
                     `trio_sim::DetHashMap`/`DetHashSet` (`::default()`) or an ordered \
                     map so nothing the clock or the allocator can observe depends on it"
                        .to_string());
            }
        }

        // R10: a directory page is read through `trio_layout::DirPage` and a
        // slot written through `DirentRef`; tests in these files included.
        if layout_door_scope
            && (line.contains("chunks_exact(DIRENT_SIZE)")
                || line.contains("..DIRENTS_PER_PAGE")
                || line.contains("..trio_layout::DIRENTS_PER_PAGE")
                || find_call(line, "byte_off").is_some())
        {
            emit(out, rel, &raw, i, Rule::LayoutDoor,
                "slot geometry outside `trio-layout`: read a directory page through \
                 `DirPage`, a slot through `DirentRef` (DESIGN.md §3)".to_string());
        }

        // R11: the device's MMU interface is named behind the page-table
        // door only. `revoke_actor` is also the grant table's; that one is
        // reached through `grants()`. In the kernel, the scrubs that drop
        // every actor's PTEs are the allocator's or the door's.
        if page_table_door_scope && i < test_region {
            for &m in door_calls {
                let Some(pos) = find_call(line, m) else { continue };
                let mut receiver = line[..pos - 1].trim();
                if receiver.is_empty() {
                    receiver = prev_nonempty(&lines, i).map_or("", str::trim);
                }
                if m == "revoke_actor" && receiver.ends_with("grants()") {
                    continue;
                }
                emit(out, rel, &raw, i, Rule::PageTableDoor, format!(
                    "`.{m}(…)` outside `kernel/src/pagetable.rs` edits an actor's PTEs \
                     without its page-table lock; go through \
                     `KernelController::page_table(actor).lock()` (DESIGN.md §20)"
                ));
            }
        }
    }
}

/// Whether a workspace-relative path is shipped library code: a file under
/// `crates/<name>/src/…` (crate test trees, benches and root-level
/// integration tests are not).
fn shipped_src(rel: &Path) -> bool {
    let mut it = rel.components();
    it.next().is_some_and(|c| c.as_os_str() == "crates")
        && it.next().is_some()
        && it.next().is_some_and(|c| c.as_os_str() == "src")
}

/// Detects a persist-style `.name(…)` call site anchored at line `i`,
/// including the multi-line shapes a lexical per-line scan would miss:
///
/// * same-line `recv.name(args…)` (via [`find_call`]);
/// * receiver dot ending the previous non-empty line (`recv.` ⏎ `name(…)`);
/// * name at end of line with the paren on the next (`recv.name` ⏎ `(…)`).
///
/// Returns `Some(zero_arg)` when a call site anchors here, else `None`.
/// `zero_arg` is true for `.name()` with no arguments (a different API —
/// e.g. the LSM memtable flush — exempt from persist pairing rules).
fn flush_call_site(lines: &[&str], i: usize, name: &str) -> Option<bool> {
    let line = lines[i];
    // Shape 1: same-line call.
    if let Some(pos) = find_call(line, name) {
        let after = line[pos..].split_once('(').map_or("", |(_, rest)| rest);
        return Some(zero_arg_at(lines, i, after));
    }
    // Shape 2: `recv.` on the previous non-empty line, `name(` starting
    // this one.
    let trimmed = line.trim_start();
    if let Some(rest) = trimmed.strip_prefix(name) {
        let rest_t = rest.trim_start();
        if rest_t.starts_with('(')
            && prev_nonempty(lines, i).is_some_and(|p| p.trim_end().ends_with('.'))
        {
            let after = rest_t.split_once('(').map_or("", |(_, r)| r);
            return Some(zero_arg_at(lines, i, after));
        }
    }
    // Shape 3: `.name` at end of line, `(` opening the next non-empty one.
    if line.trim_end().ends_with(&format!(".{name}")) {
        if let Some((j, next)) = next_nonempty(lines, i) {
            let nt = next.trim_start();
            if let Some(after) = nt.strip_prefix('(') {
                return Some(zero_arg_at(lines, j, after));
            }
        }
    }
    None
}

/// Whether the argument list whose opening paren precedes `after` (the
/// remainder of line `i` past that paren) is empty, looking across the
/// line break when the paren ends the line.
fn zero_arg_at(lines: &[&str], i: usize, after: &str) -> bool {
    let a = after.trim_start();
    if !a.is_empty() {
        return a.starts_with(')');
    }
    next_nonempty(lines, i).is_some_and(|(_, l)| l.trim_start().starts_with(')'))
}

fn prev_nonempty<'a>(lines: &[&'a str], i: usize) -> Option<&'a str> {
    lines[..i].iter().rev().find(|l| !l.trim().is_empty()).copied()
}

fn next_nonempty<'a>(lines: &[&'a str], i: usize) -> Option<(usize, &'a str)> {
    lines
        .iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, l)| !l.trim().is_empty())
        .map(|(j, l)| (j, *l))
}

/// Finds a `name!(` macro invocation in a masked line, tolerating
/// whitespace before the paren. `name` must not be part of a longer
/// identifier (`should_panic` doesn't match `panic`).
fn macro_invocation(line: &str, name: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel_pos) = line[from..].find(name) {
        let pos = from + rel_pos;
        let end = pos + name.len();
        let left_ok = pos == 0 || !is_ident(line[..pos].chars().next_back().unwrap());
        let after = line[end..].trim_start();
        if left_ok && after.starts_with('!') && after[1..].trim_start().starts_with('(') {
            return Some(pos);
        }
        from = end;
    }
    None
}

/// Records a finding unless a `lint: allow(<rule-id>) <reason>` annotation
/// on the flagged line or up to two lines above suppresses it. An allow
/// without a reason does not suppress — it is reported instead.
fn emit(out: &mut Vec<Finding>, rel: &Path, raw: &[&str], i: usize, rule: Rule, msg: String) {
    let needle = format!("lint: allow({})", rule.id());
    let lo = i.saturating_sub(2);
    for l in &raw[lo..=i.min(raw.len() - 1)] {
        if let Some(pos) = l.find(&needle) {
            let reason = l[pos + needle.len()..].trim();
            if reason.is_empty() {
                out.push(Finding {
                    file: rel.to_path_buf(),
                    line: i + 1,
                    rule,
                    msg: format!("`lint: allow({})` requires a reason", rule.id()),
                });
            }
            return;
        }
    }
    out.push(Finding { file: rel.to_path_buf(), line: i + 1, rule, msg });
}

/// Finds `.name(` (a method call on some receiver) in a masked line,
/// tolerating whitespace between the name and the paren. Returns the byte
/// offset of the name. Plain `name(` definitions don't match.
fn find_call(line: &str, name: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel_pos) = line[from..].find(name) {
        let pos = from + rel_pos;
        let before_dot = pos > 0 && bytes[pos - 1] == b'.';
        let end = pos + name.len();
        let after = line[end..].trim_start();
        if before_dot && after.starts_with('(') {
            return Some(pos);
        }
        from = end;
    }
    None
}

/// Whether `word` occurs in `line` delimited by non-identifier characters.
fn contains_word(line: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(rel_pos) = line[from..].find(word) {
        let pos = from + rel_pos;
        let end = pos + word.len();
        let left_ok = pos == 0 || !is_ident(line[..pos].chars().next_back().unwrap());
        let right_ok = end == line.len() || !is_ident(line[end..].chars().next().unwrap());
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

/// Replaces the contents of comments, string/byte-string literals (including
/// raw strings) and char literals with spaces, preserving the line structure,
/// so token rules never match inside quoted or commented text. Lifetimes
/// (`'a`) are left intact; block comments nest, as in Rust.
pub fn mask_source(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0;

    let put = |out: &mut String, c: char| {
        out.push(if c == '\n' { '\n' } else { ' ' });
    };

    while i < n {
        let c = chars[i];
        match c {
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        put(&mut out, chars[i]);
                        put(&mut out, chars[i + 1]);
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        put(&mut out, chars[i]);
                        put(&mut out, chars[i + 1]);
                        i += 2;
                    } else {
                        put(&mut out, chars[i]);
                        i += 1;
                    }
                }
            }
            '"' => i = mask_string(&chars, i, &mut out),
            'r' | 'b' => {
                // r"…", r#"…"#, b"…", br#"…"# — only when the prefix is not
                // part of a longer identifier (e.g. `attr"` can't occur).
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                let (skip, hashes) = raw_prefix(&chars, i);
                if !prev_ident && skip > 0 {
                    for _ in 0..skip {
                        put(&mut out, chars[i]);
                        i += 1;
                    }
                    i = mask_raw_string(&chars, i, hashes, &mut out);
                } else if !prev_ident && i + 1 < n && c == 'b' && chars[i + 1] == '"' {
                    out.push(' ');
                    i = mask_string(&chars, i + 1, &mut out);
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: '\x' escape or 'c' followed by a
                // closing quote is a literal; anything else is a lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    out.push(' ');
                    i += 1;
                    while i < n && chars[i] != '\'' {
                        put(&mut out, chars[i]);
                        i += 1;
                    }
                    if i < n {
                        out.push(' ');
                        i += 1;
                    }
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    out.push(' ');
                    put(&mut out, chars[i + 1]);
                    out.push(' ');
                    i += 3;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Masks a `"…"` literal starting at the opening quote; returns the index
/// past the closing quote.
fn mask_string(chars: &[char], mut i: usize, out: &mut String) -> usize {
    let n = chars.len();
    out.push(' '); // opening quote
    i += 1;
    while i < n {
        match chars[i] {
            '\\' if i + 1 < n => {
                out.push(' ');
                out.push(if chars[i + 1] == '\n' { '\n' } else { ' ' });
                i += 2;
            }
            '"' => {
                out.push(' ');
                return i + 1;
            }
            c => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    i
}

/// If `chars[i..]` starts a raw-string prefix (`r`, `br` + hashes + quote),
/// returns (chars in the prefix including the quote, hash count); else (0,0).
fn raw_prefix(chars: &[char], i: usize) -> (usize, usize) {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if j >= n || chars[j] != 'r' {
        return (0, 0);
    }
    j += 1;
    let mut hashes = 0;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < n && chars[j] == '"' {
        (j + 1 - i, hashes)
    } else {
        (0, 0)
    }
}

/// Masks a raw string body (opening prefix already consumed); returns the
/// index past the closing `"###…`.
fn mask_raw_string(chars: &[char], mut i: usize, hashes: usize, out: &mut String) -> usize {
    let n = chars.len();
    while i < n {
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if i + 1 + k >= n || chars[i + 1 + k] != '#' {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..=hashes {
                    out.push(' ');
                }
                return i + 1 + hashes;
            }
        }
        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_strips_comments_and_strings() {
        let src = "let x = \"a.flush(1) b\"; // h.flush(page, 0, 8)\nreal();\n";
        let m = mask_source(src);
        assert!(!m.contains("flush"));
        assert!(m.contains("real()"));
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn mask_handles_raw_strings_and_chars() {
        let src = "let s = r#\"unsafe \"quoted\" here\"#; let c = '\\''; let l: &'static str = s;\n";
        let m = mask_source(src);
        assert!(!m.contains("unsafe"));
        assert!(!m.contains("quoted"));
        assert!(m.contains("'static")); // lifetime survives
    }

    #[test]
    fn mask_handles_nested_block_comments() {
        let src = "/* outer /* unsafe inner */ still comment */ code();\n";
        let m = mask_source(src);
        assert!(!m.contains("unsafe"));
        assert!(m.contains("code()"));
    }

    #[test]
    fn code_lines_skip_comments_blanks_and_the_test_tail() {
        let src = "//! doc\n\nfn a() {\n    // note\n    let s = \"x\"; // tail\n}\n\
                   /* block\n   more */\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(code_lines(src), 3);
    }

    #[test]
    fn find_call_requires_receiver_and_paren() {
        assert!(find_call("h.flush(page, 0, 8);", "flush").is_some());
        assert!(find_call("pub fn flush(&self) {", "flush").is_none());
        assert!(find_call("self.dev.flush (page, 0, 8)", "flush").is_some());
        assert!(find_call("reflush(1)", "flush").is_none());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("x unsafe {", "unsafe"));
        assert!(!contains_word("forbid(unsafe_code)", "unsafe"));
        assert!(!contains_word("unsafely", "unsafe"));
    }

    #[test]
    fn workspace_is_lint_clean() {
        let root = workspace_root();
        let (findings, scanned) = lint_tree(&root).unwrap();
        assert!(scanned > 40, "expected to scan the whole workspace, got {scanned} files");
        assert!(
            findings.is_empty(),
            "workspace should be lint-clean, got:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn fixture_trips_every_rule() {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("lint-fixture");
        let (findings, _) = lint_tree(&fixture).unwrap();
        for rule in [
            Rule::NoStdSync,
            Rule::SafetyComment,
            Rule::FlushFence,
            Rule::NoPanic,
            Rule::PayloadMaterialize,
            Rule::RawPublish,
            Rule::HotPathRegistry,
            Rule::NoRandomState,
            Rule::LayoutDoor,
            Rule::PageTableDoor,
        ] {
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "fixture should trip {}, got:\n{}",
                rule.id(),
                findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
            );
        }
        // The annotated flush and the SAFETY-documented unsafe are clean;
        // the reason-less allow is reported as such.
        assert!(
            !findings.iter().any(|f| f.msg.contains("may never become durable")
                && f.line == fixture_line(&fixture, "suppressed: caller fences the batch")),
            "annotated flush must be suppressed"
        );
        assert!(
            findings.iter().any(|f| f.msg.contains("requires a reason")),
            "bare allow must be reported"
        );
        // no-panic: the three live sites trip, the annotated one and the
        // `unwrap_or` lookalike stay clean.
        let panicky: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::NoPanic)
            .map(|f| f.line)
            .collect();
        assert_eq!(panicky.len(), 3, "exactly the three live panic sites: {panicky:?}");
        let fixture_src = fixture.join("crates").join("verifier").join("src").join("panicky.rs");
        let src = std::fs::read_to_string(&fixture_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(!panicky.contains(&line_of("lint: allow(no-panic) fixture")));
        assert!(!panicky.contains(&(line_of("lint: allow(no-panic) fixture") + 1)));
        assert!(!panicky.contains(&line_of("unwrap_or(0)")));
        // no-payload-copy: exactly the two live materialization sites trip;
        // the annotated fallback and the `vec![0u8; n]` destination buffer
        // stay clean.
        let payload_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::PayloadMaterialize)
            .map(|f| f.line)
            .collect();
        assert_eq!(payload_hits.len(), 2, "exactly the two live copy sites: {payload_hits:?}");
        let deleg_src =
            fixture.join("crates").join("kernel").join("src").join("delegation.rs");
        let src = std::fs::read_to_string(&deleg_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(payload_hits.contains(&line_of("payload.to_vec()")));
        assert!(payload_hits.contains(&line_of("Arc::from(payload)")));
        assert!(!payload_hits.contains(&(line_of("lint: allow(no-payload-copy)") + 1)));
        assert!(!payload_hits.contains(&line_of("vec![0u8; copied.len()]")));
        // flush-fence multi-line shapes: both blind-spot cases trip, the
        // fenced chain stays clean.
        let ff_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::FlushFence && f.file.ends_with("src/lib.rs"))
            .map(|f| f.line)
            .collect();
        let lib_src = std::fs::read_to_string(fixture.join("src").join("lib.rs")).unwrap();
        let lib_line = |needle: &str| lib_src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(
            ff_hits.contains(&lib_line("trips flush-fence (chained shape)")),
            "chained flush (dot on previous line) must trip: {ff_hits:?}"
        );
        // The split shape anchors on the `h.flush` line, one above the
        // argument line.
        assert!(
            ff_hits.contains(&(lib_line("(6, 0, 64)") - 1)),
            "split flush (paren on next line) must trip: {ff_hits:?}"
        );
        assert!(
            !ff_hits.contains(&lib_line("flush(7, 0, 64)")),
            "fenced chained flush must stay clean: {ff_hits:?}"
        );
        assert!(
            !ff_hits.contains(&(lib_line("(8, 0, 64)") - 1)),
            "fenced split flush must stay clean: {ff_hits:?}"
        );
        // raw-publish: exactly the four live escape-hatch sites trip; the
        // annotated escape and the single-word persist stay clean.
        let raw_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::RawPublish)
            .map(|f| f.line)
            .collect();
        assert_eq!(raw_hits.len(), 4, "exactly the four live raw sites: {raw_hits:?}");
        let raw_src =
            fixture.join("crates").join("core").join("src").join("rawpub.rs");
        let src = std::fs::read_to_string(&raw_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(raw_hits.contains(&line_of("h.publish_u64_raw(1, 0, 7)")));
        assert!(raw_hits.contains(&line_of("h.assume_durable(1, 0, 64)")));
        assert!(raw_hits.contains(&line_of("h.flush(1, 0, 64)")));
        assert!(raw_hits.contains(&line_of("h.fence();")));
        assert!(!raw_hits.contains(&(line_of("lint: allow(raw-publish) fixture") + 1)));
        assert!(!raw_hits.contains(&line_of("h.write_u64_persist(3, 0, 9)")));
        // hot-path-registry: the direct acquisition and the instrumented
        // wrapper both trip; the annotated cold path stays clean.
        let hot_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::HotPathRegistry)
            .map(|f| f.line)
            .collect();
        assert_eq!(hot_hits.len(), 2, "exactly the two live lock sites: {hot_hits:?}");
        let hp_src = fixture.join("crates").join("kernel").join("src").join("hotpath.rs");
        let src = std::fs::read_to_string(&hp_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(hot_hits.contains(&line_of("let _fast")));
        assert!(hot_hits.contains(&line_of("let _site")));
        assert!(!hot_hits.contains(&line_of("let _cold")));
        // no-random-state: the two constructors and the named hasher trip;
        // the fixed-key alias, the annotated site and the test module stay
        // clean.
        let rs_hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::NoRandomState)
            .map(|f| f.line)
            .collect();
        assert_eq!(rs_hits.len(), 3, "exactly the three live RandomState sites: {rs_hits:?}");
        let rs_src = fixture.join("crates").join("core").join("src").join("randstate.rs");
        let src = std::fs::read_to_string(&rs_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(rs_hits.contains(&line_of("HashMap::new()")));
        assert!(rs_hits.contains(&line_of("HashSet::with_capacity(8)")));
        assert!(rs_hits.contains(&line_of("hash_map::RandomState")));
        // layout-door: the chunk walk, the slot range and the byte offset
        // trip; the reader, the annotated site and a plain page count stay
        // clean.
        let door_hits: Vec<_> =
            findings.iter().filter(|f| f.rule == Rule::LayoutDoor).map(|f| f.line).collect();
        assert_eq!(door_hits.len(), 3, "exactly the three live geometry sites: {door_hits:?}");
        let door_src = fixture.join("crates").join("verifier").join("src").join("dirwalk.rs");
        let src = std::fs::read_to_string(&door_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(door_hits.contains(&line_of("raw.chunks_exact(DIRENT_SIZE)")));
        assert!(door_hits.contains(&line_of("for slot in 0..DIRENTS_PER_PAGE")));
        assert!(door_hits.contains(&line_of("loc.byte_off() + 16")));
        // page-table-door: the four device calls trip; the grant table's
        // `revoke_actor`, the door, the annotated site and the test module
        // stay clean.
        let pt_hits: Vec<_> =
            findings.iter().filter(|f| f.rule == Rule::PageTableDoor).map(|f| f.line).collect();
        assert_eq!(pt_hits.len(), 4, "exactly the four live MMU sites: {pt_hits:?}");
        let pt_src = fixture.join("crates").join("kernel").join("src").join("mmu.rs");
        let src = std::fs::read_to_string(&pt_src).unwrap();
        let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
        assert!(pt_hits.contains(&line_of("self.dev.mmu_map(actor, page, PagePerm::Write)")));
        assert!(pt_hits.contains(&line_of("self.device().mmu_unmap(actor, page)")));
        assert!(pt_hits.contains(&line_of("self.device().revoke_actor(offender)")));
        assert!(pt_hits.contains(&line_of("self.device().reset_page(page)")));
    }

    /// 1-based line of the first raw line containing `needle` in the
    /// fixture's lib.rs (0 if absent) — keeps the test robust to edits.
    fn fixture_line(fixture: &Path, needle: &str) -> usize {
        let src = std::fs::read_to_string(fixture.join("src").join("lib.rs")).unwrap();
        src.lines().position(|l| l.contains(needle)).map(|i| i + 1).unwrap_or(0)
    }
}
