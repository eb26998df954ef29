//! `cargo xtask` — in-tree developer tooling for the Trio reproduction.
//!
//! Subcommands:
//!
//! * `lint [TREE]` — the project rules no compiler check expresses yet
//!   (DESIGN.md §13), below. The rest are clippy's: `clippy.toml`, lint
//!   attributes and the workspace `[lints]` table.
//! * `typestate-check` — the compile-fail gate for the typestate persist
//!   pipeline (DESIGN.md §18): `fixtures/typestate-fixture` must compile
//!   with no features and fail with a type error (`E0308`) under each
//!   hazard feature.
//! * `clippy-check` — proves each rule clippy took over bites: clippy on
//!   `fixtures/clippy-fixture`, against the root `clippy.toml`, must
//!   report a diagnostic on each line marked `// trips: <text>` that holds
//!   `<text>`, and none on any other line; each `clippy.toml` path must be
//!   the text of some mark.
//! * `lines [TREE]` — per crate under `crates/`, the Rust lines in `src/`
//!   that carry code: not blank, not comment-only, and before the file's
//!   first `#[cfg(test)]`. The size a simplicity change is measured by.
//!
//! Lint rules:
//!
//! * **no-payload-copy** — the delegation submit path
//!   (`crates/kernel/src/delegation.rs`, `crates/core/src/file_ops.rs`)
//!   moves payloads by `GrantRef` window only (DESIGN.md §17); any byte
//!   materialization (`.to_vec()`, `.to_owned()`, `Vec::from(…)`,
//!   `Arc::from(…)`, `Box::from(…)`) re-introduces the memcpy the
//!   zero-copy architecture removed, and the perf gate pins
//!   `payload_copies == 0`. Destination buffers for reads are fine — the
//!   rule targets the source-payload constructors, not `vec![0u8; n]`.
//! * **hot-path-registry** — modules annotated `lint: hot-path` (the
//!   grant table, the delegation pool) must never take the kernel's
//!   registry control lock: the mega-tenant scaling story (DESIGN.md §20)
//!   rests on steady-state alloc/free/grant paths staying off that lock,
//!   and the perf gate pins `registry_locks` near zero to prove it.
//! * **layout-door** — slot geometry and slot iteration live in
//!   `trio-layout` (DESIGN.md §3). In `crates/{kernel,verifier,core}/src` a
//!   hand-written walk over a directory page — `chunks_exact(DIRENT_SIZE)`,
//!   a `..DIRENTS_PER_PAGE` range — and a slot's byte offset
//!   (`.byte_off()`) are findings: each is a private copy of the format,
//!   and eight such copies had drifted apart on what a poisoned line costs.
//!   Read through `DirPage`, write through `DirentRef`.
//!
//! Any rule can be suppressed per-site with `// lint: allow(<rule-id>)
//! <reason>` on the flagged line or up to two lines above it; the reason is
//! mandatory — a bare allow is itself reported.
//!
//! The scanner is lexical (comments, strings and char literals are masked
//! before token matching): the workspace builds offline with zero
//! third-party crates, so `syn` is unavailable. The fixture crate under
//! `fixtures/lint-fixture` pins the behaviour of every rule.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args.get(1).map_or_else(workspace_root, PathBuf::from)),
        Some("typestate-check") => run_typestate_check(),
        Some("clippy-check") => run_clippy_check(),
        Some("lines") => run_lines(&args.get(1).map_or_else(workspace_root, PathBuf::from)),
        Some(other) => {
            eprintln!(
                "xtask: unknown command `{other}` (expected `lint`, `typestate-check`, \
                 `clippy-check` or `lines`)"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <lint [TREE] | typestate-check | clippy-check | lines [TREE]>"
            );
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
// Fixture checks: typestate-check and clippy-check
// ---------------------------------------------------------------------------

/// One run of cargo on a fixture: what it shows, cargo's arguments, and the
/// verdict on its outcome (success, stderr).
struct Case<'a> {
    what: String,
    args: Vec<&'a str>,
    verdict: &'a dyn Fn(bool, &str) -> Result<(), String>,
}

/// The fixture runner behind `typestate-check` and `clippy-check`: runs
/// each case on the crate `fixtures/<fixture>` and fails at the first
/// verdict that does. A fixture is a workspace of its own; every fixture
/// builds into `target/fixtures` (sharing the main target dir would thrash
/// its lock under `verify.sh`), and clippy reads the root `clippy.toml`.
fn run_fixture_check(check: &str, fixture: &str, cases: &[Case]) -> ExitCode {
    let root = workspace_root();
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture)
        .join("Cargo.toml");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for case in cases {
        let (cmd, rest) = case.args.split_first().expect("a case names a cargo command");
        let out = std::process::Command::new(&cargo)
            .args([cmd, "--quiet", "--manifest-path"])
            .arg(&manifest)
            .arg("--target-dir")
            .arg(root.join("target").join("fixtures"))
            .args(rest)
            .env("CLIPPY_CONF_DIR", &root)
            .output();
        let verdict = match out {
            Ok(out) => (case.verdict)(out.status.success(), &String::from_utf8_lossy(&out.stderr)),
            Err(e) => Err(format!("could not run cargo: {e}")),
        };
        if let Err(e) = verdict {
            eprintln!("{check}: FAIL — {}: {e}", case.what);
            return ExitCode::FAILURE;
        }
        println!("{check}: {}", case.what);
    }
    println!("{check}: OK ({} cases)", cases.len());
    ExitCode::SUCCESS
}

/// Hazard-class features of `fixtures/typestate-fixture`; each must make
/// the fixture fail to compile with a type error. A flush or fence left
/// out needs none: the typed API has no way to write one.
const TYPESTATE_HAZARDS: [&str; 1] = ["hazard-publish-before-persist"];

fn run_typestate_check() -> ExitCode {
    let compiles = |ok: bool, err: &str| {
        if ok { Ok(()) } else { Err(format!("the well-typed fixture does not compile:\n{err}")) }
    };
    // Each hazard class must be a type error: the bugs the sanitizer
    // catches at run time do not compile.
    let rejected = |ok: bool, err: &str| match (ok, err.contains("E0308")) {
        (true, _) => Err("it compiled; the hazard is representable".to_string()),
        (false, true) => Ok(()),
        (false, false) => Err(format!("failed for the wrong reason (expected E0308):\n{err}")),
    };
    let mut cases = vec![Case {
        what: "well-typed pipeline compiles".into(),
        args: vec!["check"],
        verdict: &compiles,
    }];
    for hazard in TYPESTATE_HAZARDS {
        cases.push(Case {
            what: format!("{hazard} rejected (E0308)"),
            args: vec!["check", "--features", hazard],
            verdict: &rejected,
        });
    }
    run_fixture_check("typestate-check", "typestate-fixture", &cases)
}

fn run_clippy_check() -> ExitCode {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy-fixture/src/lib.rs");
    let conf = workspace_root().join("clippy.toml");
    let verdict = |ok: bool, err: &str| {
        if ok {
            return Err("clippy passed the fixture".to_string());
        }
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let src = read(&src)?;
        // A path that stops resolving is only a warning in clippy, and the
        // entry then checks nothing: each entry needs a case that trips.
        let conf = read(&conf)?;
        let untested: Vec<&str> = conf
            .split("path = \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .filter(|path| !src.contains(&format!("// trips: `{path}`")))
            .collect();
        if !untested.is_empty() {
            return Err(format!("clippy.toml entries with no case: {untested:?}"));
        }
        clippy_verdict(&src, err)
    };
    let cases = [Case {
        what: "every `// trips:` line trips, and no other line".into(),
        args: vec!["clippy", "--message-format=short", "--", "-D", "warnings"],
        verdict: &verdict,
    }];
    run_fixture_check("clippy-check", "clippy-fixture", &cases)
}

/// Matches clippy's short diagnostics (`src/lib.rs:LINE:COL: …`) against
/// the fixture's markers: each line marked `// trips: <text>` must draw a
/// diagnostic holding `<text>`, and an unmarked line must draw none.
fn clippy_verdict(src: &str, stderr: &str) -> Result<(), String> {
    let marks: Vec<Option<&str>> =
        src.lines().map(|l| l.split_once("// trips: ").map(|(_, t)| t.trim())).collect();
    let diags: Vec<(usize, &str)> = stderr
        .lines()
        .filter_map(|d| {
            let (n, _) = d.strip_prefix("src/lib.rs:")?.split_once(':')?;
            Some((n.parse().ok()?, d))
        })
        .collect();
    let mut wrong = Vec::new();
    for (i, mark) in marks.iter().enumerate() {
        if let Some(text) = mark {
            if !diags.iter().any(|&(n, d)| n == i + 1 && d.contains(text)) {
                wrong.push(format!("line {} drew no `{text}`", i + 1));
            }
        }
    }
    for &(n, d) in &diags {
        if n.checked_sub(1).and_then(|i| marks.get(i)).is_none_or(Option::is_none) {
            wrong.push(format!("unmarked line {n}: {d}"));
        }
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("{}\nclippy said:\n{stderr}", wrong.join("\n")))
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Stable rule identifiers, used in reports and in `lint: allow(<id>)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    PayloadMaterialize,
    HotPathRegistry,
    LayoutDoor,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::PayloadMaterialize => "no-payload-copy",
            Rule::HotPathRegistry => "hot-path-registry",
            Rule::LayoutDoor => "layout-door",
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

fn lint_file(rel: &Path, src: &str, out: &mut Vec<Finding>) {
    // Zero-copy delegation (DESIGN.md §17): the submit path hands workers a
    // `GrantRef` into granted pages; constructing an owned byte payload
    // here is the copy the grant-window architecture exists to remove.
    let payload_scope = rel == Path::new("crates/kernel/src/delegation.rs")
        || rel == Path::new("crates/core/src/file_ops.rs");
    // Above `trio-layout`, callers bring policy, not slot arithmetic.
    let layout_door_scope = ["crates/kernel/src", "crates/verifier/src", "crates/core/src"]
        .iter()
        .any(|dir| rel.starts_with(dir));
    // A module that declares itself hot-path (raw source, so the marker
    // lives in its doc comment) has sworn off the registry control lock
    // entirely (DESIGN.md §20).
    let hot_path_scope = !rel.starts_with("crates/xtask") && src.contains("lint: hot-path");

    let masked = mask_source(src);
    let raw: Vec<&str> = src.lines().collect();
    let lines: Vec<&str> = masked.lines().collect();

    // Unit-test modules (`#[cfg(test)]` onward — conventionally the file
    // tail) may take the registry lock.
    let test_region =
        lines.iter().position(|l| l.contains("#[cfg(test)]")).unwrap_or(usize::MAX);

    for (i, line) in lines.iter().enumerate() {
        // no-payload-copy. Reads still need destination buffers
        // (`vec![0u8; n]` is fine); what's forbidden is constructing an
        // *owned copy of the source payload* instead of passing the grant
        // window through.
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

        // hot-path-registry: neither the registry lock directly nor the
        // instrumented `reg_lock` wrapper.
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

        // layout-door: a directory page is read through
        // `trio_layout::DirPage` and a slot written through `DirentRef`;
        // tests in these files included.
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
    }
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
    fn clippy_verdict_wants_each_mark_and_nothing_else() {
        let src = "fn f() {\n    a(); // trips: `a`\n    b();\n}\n";
        assert!(clippy_verdict(src, "src/lib.rs:2:5: error: use of `a`\n").is_ok());
        // A marked line that drew nothing, or drew something else.
        assert!(clippy_verdict(src, "").is_err());
        assert!(clippy_verdict(src, "src/lib.rs:2:5: error: use of `b`\n").is_err());
        // The clean twin drew a diagnostic.
        let both = "src/lib.rs:2:5: error: use of `a`\nsrc/lib.rs:3:5: error: use of `b`\n";
        assert!(clippy_verdict(src, both).is_err());
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
        let hits = |rule: Rule| -> Vec<usize> {
            findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
        };
        let line_of = |file: &str, needle: &str| {
            let src = std::fs::read_to_string(fixture.join(file)).unwrap();
            src.lines().position(|l| l.contains(needle)).unwrap() + 1
        };
        // no-payload-copy: exactly the two live materialization sites trip;
        // the annotated fallback and the `vec![0u8; n]` destination buffer
        // stay clean.
        let deleg = |needle| line_of("crates/kernel/src/delegation.rs", needle);
        let payload_hits = hits(Rule::PayloadMaterialize);
        assert_eq!(payload_hits.len(), 2, "exactly the two live copy sites: {payload_hits:?}");
        assert!(payload_hits.contains(&deleg("payload.to_vec()")));
        assert!(payload_hits.contains(&deleg("Arc::from(payload)")));
        assert!(!payload_hits.contains(&(deleg("lint: allow(no-payload-copy)") + 1)));
        assert!(!payload_hits.contains(&deleg("vec![0u8; copied.len()]")));
        // hot-path-registry: the direct acquisition and the instrumented
        // wrapper both trip, the annotated cold path stays clean, and the
        // reason-less allow is reported as such.
        let hot = |needle| line_of("crates/kernel/src/hotpath.rs", needle);
        let hot_hits = hits(Rule::HotPathRegistry);
        assert_eq!(hot_hits.len(), 3, "the two live lock sites and the bare allow: {hot_hits:?}");
        assert!(hot_hits.contains(&hot("let _fast")));
        assert!(hot_hits.contains(&hot("let _site")));
        assert!(!hot_hits.contains(&hot("let _cold")));
        assert!(findings.iter().any(|f| f.line == hot("let _bare")
            && f.msg.contains("requires a reason")));
        // layout-door: the chunk walk, the slot range and the byte offset
        // trip; the reader, the annotated site and a plain page count stay
        // clean.
        let walk = |needle| line_of("crates/verifier/src/dirwalk.rs", needle);
        let door_hits = hits(Rule::LayoutDoor);
        assert_eq!(door_hits.len(), 3, "exactly the three live geometry sites: {door_hits:?}");
        assert!(door_hits.contains(&walk("raw.chunks_exact(DIRENT_SIZE)")));
        assert!(door_hits.contains(&walk("for slot in 0..DIRENTS_PER_PAGE")));
        assert!(door_hits.contains(&walk("loc.byte_off() + 16")));
    }
}
