//! # tpa-lint — repo-specific static analysis for the TPA workspace
//!
//! The workspace's core contract — every optimization layer is bitwise
//! identical across backends, and the serving tier is panic-free and
//! lock-safe — is enforced at runtime by property tests. This crate is
//! the compile-time half of that contract: a dependency-free analyzer
//! that walks the workspace source and enforces four rule families:
//!
//! 1. **Panic-freedom** (`panic-freedom`, `unchecked-index`): no
//!    `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` /
//!    `unimplemented!` and no unchecked slice indexing in the serving /
//!    kernel files (`service.rs`, `admission.rs`, `cpi.rs`,
//!    `frontier.rs`, `patch.rs`, `topk.rs`, `batch.rs`).
//! 2. **Atomic-ordering discipline** (`atomic-ordering`): every
//!    `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}` site must
//!    carry a `// ord:` justification comment naming the happens-before
//!    edge it relies on (or match the per-file policy table).
//! 3. **Lock-order safety** (`lock-order`, `condvar-hold`): a
//!    conservative may-hold-while-acquiring graph over the
//!    `Mutex` / `RwLock` / `Condvar` fields of `service.rs`,
//!    `admission.rs`, and `patch.rs`; cycles are deadlock candidates.
//! 4. **FP-determinism** (`fp-hashmap-fold`, `unordered-reduction`,
//!    `stringly-error`): no float folds over `HashMap` / `HashSet`
//!    iteration in kernel modules, no rayon-style unordered parallel
//!    reductions, and no `Result<_, String>` / `Box<dyn Error>`
//!    regressions anywhere in `tpa-core`.
//!
//! Pre-existing debt lives in a committed `lint-baseline.json` keyed by
//! `(file, rule) → count`: **new** findings fail the check, burned-down
//! ones make the baseline stale (also a failure, prompting a ratchet
//! via `--write-baseline`). Individual sites are waived inline with
//! `// lint:allow(rule, "reason")`.

pub mod baseline;
pub mod json;
pub mod lexer;
pub mod rules;

use lexer::Lexed;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Finding severity. Both severities participate in the ratchet; the
/// split exists so the heuristic rules (`unchecked-index`,
/// `fp-hashmap-fold`) read as advisories next to the hard contract
/// rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: `file:line: [rule] severity: message`.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: usize,
    /// Stable rule id (see the crate docs / README rule catalog).
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file, self.line, self.rule, self.severity, self.message
        )
    }
}

/// Per-file ordering-policy entry: `(path suffix, variant)` pairs that
/// pre-approve an `Ordering::<variant>` without a `// ord:` comment.
/// `"*"` approves every variant in the file.
pub type OrderingPolicy = (&'static str, &'static str);

/// What the analyzer enforces where. The default [`Config::repo`] is
/// the checked-in contract; fixture tests construct narrower ones.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path suffixes covered by the panic-freedom family.
    pub panic_paths: Vec<&'static str>,
    /// Path suffixes covered by the lock-order family.
    pub lock_paths: Vec<&'static str>,
    /// Path suffixes of kernel modules covered by `fp-hashmap-fold` /
    /// `unordered-reduction`.
    pub kernel_paths: Vec<&'static str>,
    /// Path prefixes covered by `stringly-error`.
    pub stringly_prefixes: Vec<&'static str>,
    /// Pre-approved `Ordering` uses (see [`OrderingPolicy`]).
    pub ordering_policy: Vec<OrderingPolicy>,
}

impl Config {
    /// The checked-in repo contract.
    pub fn repo() -> Self {
        Config {
            panic_paths: vec![
                "core/src/service.rs",
                "core/src/admission.rs",
                "core/src/cpi.rs",
                "core/src/frontier.rs",
                "core/src/patch.rs",
                "core/src/topk.rs",
                "core/src/batch.rs",
            ],
            lock_paths: vec!["core/src/service.rs", "core/src/admission.rs", "core/src/patch.rs"],
            kernel_paths: vec![
                "core/src/cpi.rs",
                "core/src/frontier.rs",
                "core/src/patch.rs",
                "core/src/topk.rs",
                "core/src/batch.rs",
                "core/src/gather.rs",
                "core/src/transition.rs",
                "core/src/parallel.rs",
                "core/src/dynamic.rs",
                "core/src/tpa.rs",
                "core/src/pagerank.rs",
            ],
            stringly_prefixes: vec!["crates/core/src/"],
            // The contract is explicit justification everywhere; the
            // table exists for future carve-outs and for fixtures.
            ordering_policy: vec![],
        }
    }

    fn covers(paths: &[&'static str], file: &str) -> bool {
        paths.iter().any(|p| file.ends_with(p))
    }

    /// True when `file`'s `Ordering::<variant>` is pre-approved.
    pub fn ordering_allowed(&self, file: &str, variant: &str) -> bool {
        self.ordering_policy.iter().any(|(p, v)| file.ends_with(p) && (*v == "*" || *v == variant))
    }
}

/// A parsed source file, ready for the rules.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub lexed: Lexed,
    /// Token stream with `#[cfg(test)]` / `#[test]` items stripped.
    pub tokens: Vec<lexer::Token>,
}

impl SourceFile {
    /// Lexes `src` under the given workspace-relative `path` label.
    pub fn parse(path: &str, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let tokens = lexer::strip_test_items(&lexed.tokens);
        SourceFile { path: path.to_string(), lexed, tokens }
    }
}

/// Scans one comment for `lint:allow(rule, "reason")`; returns the
/// reason when it names `rule` and carries a non-empty reason. An allow
/// with an empty reason is deliberately inert — the escape hatch
/// *requires* writing down why.
fn allow_in_comment(comment: &str, rule: &str) -> Option<String> {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let args = &rest[pos + "lint:allow(".len()..];
        let close = args.find(')')?;
        let inner = &args[..close];
        let mut parts = inner.splitn(2, ',');
        let named = parts.next().unwrap_or("").trim();
        let reason = parts.next().unwrap_or("").trim().trim_matches('"').trim();
        if named == rule && !reason.is_empty() {
            return Some(reason.to_string());
        }
        rest = &rest[pos + "lint:allow(".len() + close..];
    }
    None
}

/// True when the finding at `line` is waived by a
/// `lint:allow(rule, "reason")` on the same line or the contiguous
/// comment block directly above.
pub fn is_allowed(lexed: &Lexed, line: usize, rule: &str) -> bool {
    lexed.find_justification(line, |c| allow_in_comment(c, rule)).is_some()
}

/// Runs every rule family over `files`, returning findings sorted by
/// (file, line, rule). Inline allows are already applied.
pub fn analyze(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if Config::covers(&cfg.panic_paths, &f.path) {
            rules::panic_freedom(f, &mut findings);
        }
        rules::atomic_ordering(f, cfg, &mut findings);
        if Config::covers(&cfg.kernel_paths, &f.path) {
            rules::fp_determinism(f, &mut findings);
        }
        if cfg.stringly_prefixes.iter().any(|p| f.path.starts_with(p)) {
            rules::stringly_errors(f, &mut findings);
        }
    }
    // Lock-order is cross-file: it needs every scoped file at once.
    let lock_files: Vec<&SourceFile> =
        files.iter().filter(|f| Config::covers(&cfg.lock_paths, &f.path)).collect();
    rules::lock_order(&lock_files, &mut findings);

    findings.retain(|fi| {
        let lexed =
            &files.iter().find(|f| f.path == fi.file).expect("finding from known file").lexed;
        !is_allowed(lexed, fi.line, fi.rule)
    });
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule)));
    findings
}

/// Collects the workspace source set under `root`: `src/**/*.rs` and
/// `crates/*/src/**/*.rs`, excluding the vendored shims (offline
/// stand-ins, not ours to lint). Integration tests, benches, and
/// examples live outside `src/` and are excluded by construction.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?.collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            if e.file_name() == "vendor" {
                continue;
            }
            collect_rs(&e.path().join("src"), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Loads and analyzes the workspace at `root` under `cfg`.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for p in workspace_files(root)? {
        let src = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(analyze(&files, cfg))
}

/// `(file, rule) → count` aggregation the baseline ratchet works on.
pub fn count_by_file_rule(findings: &[Finding]) -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut out: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for f in findings {
        *out.entry(f.file.clone()).or_default().entry(f.rule.to_string()).or_default() += 1;
    }
    out
}
