//! `itm-lint` — the workspace determinism, panic-safety & scale analyzer.
//!
//! The traffic map's headline correctness property is determinism: same
//! seed, same substrate, same bytes out. Its headline scaling property is
//! that hot per-prefix state must stay dense and interned or the
//! `--size internet` target dies on memory. Both used to be guarded only
//! by integration tests; this crate enforces them statically. An offline,
//! dependency-free lexer + symbol layer + rule engine scans every
//! workspace source file for the constructs that historically break them:
//!
//! | family | invariant |
//! |--------|-----------|
//! | D001–D005 | determinism: no wall clock, unseeded RNG, hash-ordered serialization, stray threads, raw allocator |
//! | P001 | no `unwrap`/`expect`/`panic!` in non-test library code |
//! | F001 | no float `==`/`!=` |
//! | M001–M004 | memory/scale: no per-item owned copies, string-keyed hot maps, merge-time sorts, shard-loop allocation |
//! | C001–C002 | shard safety: no shared mutable capture, no hash-order flows |
//! | L001 | crate dependencies follow the `lint_layers.toml` DAG |
//! | U001 | no bare-`pub` library item that nothing in the workspace names |
//!
//! The D/P/F families are line-level; the M/C/L/U families run on a
//! cross-file symbol table ([`symbols`]) that knows which fns are
//! campaign shards, which are merges, which structs sit on the hot
//! path, and which `pub` items nothing names.
//!
//! A violation that is genuinely sound is waived in place with
//! `// itm-lint: allow(RULE): <reason>`; the reason is mandatory (A001)
//! and an allow that suppresses nothing is itself an error (A002), so the
//! escape hatch cannot rot.
//!
//! Run it with `cargo run -p itm-lint`; the self-test in
//! `tests/self_check.rs` runs the same scan, so `cargo test` fails on any
//! unallowed finding too. CI gates on `--baseline
//! results/lint_baseline.json`: only *new* findings (relative to the
//! committed baseline) fail the build.

pub mod layers;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scale;
pub mod symbols;
pub mod walk;

pub use report::{Finding, LintDiff, LintReport};
pub use rules::FileClass;

use std::fs;
use std::io;
use std::path::Path;

/// Scan one in-memory source file under a given class.
///
/// A single-file symbol table is built on the fly, so the M/C rule
/// families see campaign fns and hot structs declared in the same file;
/// L001 and U001 need workspace context (`lint_layers.toml`, every
/// file's identifiers) and only run in [`scan_workspace`]. A U001 allow
/// is therefore neither reported unused (A002) nor counted in use here.
///
/// Returns the surviving findings (allow annotations already applied) and
/// the number of allows that suppressed something.
pub fn scan_source(src: &str, class: FileClass, rel_path: &str) -> (Vec<Finding>, usize) {
    let model = lexer::lex(src);
    let table = symbols::SymbolTable::build(&[rel_path], &[&model]);
    let ctx = scale::Context {
        syms: &table.files[0],
        hot_structs: &table.hot_structs,
        layers: None,
    };
    let allows = count_allows(&model, |rule| rule != "U001");
    let findings = rules::check(&model, class, rel_path, Some(&ctx));
    // Allows-in-use = total well-formed allows minus the ones reported
    // unused (A002) for this file.
    let unused = findings.iter().filter(|f| f.rule == "A002").count();
    (findings, allows.saturating_sub(unused))
}

/// The number of well-formed allows whose rule `counts` accepts.
fn count_allows(model: &lexer::SourceModel, counts: impl Fn(&str) -> bool) -> usize {
    let mut well_formed = 0;
    for comment in &model.comments {
        let content = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if let Some(rest) = content.strip_prefix("itm-lint:") {
            let rest = rest.trim();
            if let Some(args) = rest.strip_prefix("allow(") {
                if let Some(close) = args.find(')') {
                    let rule = args[..close].trim();
                    let reason_ok = args[close + 1..]
                        .trim_start()
                        .strip_prefix(':')
                        .map(|r| !r.trim().is_empty())
                        .unwrap_or(false);
                    if rules::allowable_rule(rule) && reason_ok && counts(rule) {
                        well_formed += 1;
                    }
                }
            }
        }
    }
    well_formed
}

/// Scan a whole workspace rooted at `root`.
///
/// Two passes: every file is lexed and fed to the cross-file symbol
/// table (campaign fns, hot structs, crate use-graph, unused `pub`
/// items), then each file is
/// checked with that context plus the `lint_layers.toml` DAG when one is
/// present at the root.
pub fn scan_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::collect(root)?;
    let mut models = Vec::with_capacity(files.len());
    for f in &files {
        let src = fs::read_to_string(&f.path)?;
        models.push(lexer::lex(&src));
    }
    let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
    let model_refs: Vec<&lexer::SourceModel> = models.iter().collect();
    let mut table = symbols::SymbolTable::build(&rels, &model_refs);
    table.find_unused_pub(&model_refs);
    let layers =
        layers::Layers::load(root).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

    let mut findings = Vec::new();
    let mut allows_used = 0usize;
    for (i, f) in files.iter().enumerate() {
        let ctx = scale::Context {
            syms: &table.files[i],
            hot_structs: &table.hot_structs,
            layers: layers.as_ref(),
        };
        let mut file_findings = rules::check(&models[i], f.class, &f.rel, Some(&ctx));
        let allows = count_allows(&models[i], |_| true);
        let unused = file_findings.iter().filter(|x| x.rule == "A002").count();
        allows_used += allows.saturating_sub(unused);
        findings.append(&mut file_findings);
    }
    Ok(LintReport::new(files.len(), allows_used, findings))
}
