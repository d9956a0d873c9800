//! Lightweight cross-file symbol layer for the scale/shard rules.
//!
//! This is still not a Rust parser: it walks the token stream from
//! [`crate::lexer`] and recovers just enough structure for the M/C/L rule
//! families to reason about *context* instead of single lines:
//!
//! * every `fn` with its brace-matched body token range, the loop bodies
//!   inside it, and the `if …trace… { … }` blocks (trace-gated work is
//!   exempt from the per-item allocation rule — it only runs when capture
//!   is on);
//! * every `struct` with its `BTreeMap`/`BTreeSet` fields whose key type
//!   is `String` / `Vec<String>` (the interning forcing function);
//! * the file's crate (from its workspace-relative path) and its
//!   use-graph: every `itm_*::` path reference with the line it occurs on
//!   (feeds the crate dependency graph for L001);
//! * every bare-`pub` item outside test code, and — once the whole
//!   workspace is known — which of them no identifier anywhere names
//!   (U001).
//!
//! Two derived classifications drive the rules:
//!
//! * a **campaign fn** produces per-shard state: its name ends in
//!   `_shard`, or its body mentions `shard_bounds`;
//! * a **merge fn** combines shard results: its body calls the
//!   `run_shards` closure (the campaign-runner convention used by every
//!   measurement crate).
//!
//! A **hot-path struct** is any struct whose name is referenced inside a
//! campaign or merge fn body anywhere in the scanned set — those are the
//! types that scale with prefixes × services and must not carry owned
//! `String` keys (M002).

use crate::lexer::{SourceModel, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One function with the context the rules need.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, `[start, end)` (braces included).
    pub body: (usize, usize),
    /// Produces per-shard state (name ends `_shard`, or body uses
    /// `shard_bounds`).
    pub is_campaign: bool,
    /// Merges shard results (body calls the `run_shards` closure).
    pub is_merge: bool,
    /// Token-index ranges of `for`/`while`/`loop` bodies inside this fn.
    pub loops: Vec<(usize, usize)>,
    /// Token-index ranges of `if …trace… { … }` blocks (capture-gated).
    pub trace_gated: Vec<(usize, usize)>,
}

impl FnSym {
    /// Is token index `i` inside one of this fn's loop bodies?
    pub fn in_loop(&self, i: usize) -> bool {
        self.loops.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Is token index `i` inside a trace-gated block?
    pub fn in_trace_gated(&self, i: usize) -> bool {
        self.trace_gated.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// One struct declaration with its string-keyed ordered-map fields.
#[derive(Debug, Clone)]
pub struct StructSym {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// `(line, container, key-type)` for every `BTreeMap`/`BTreeSet`
    /// field keyed by `String` or `Vec<String>`.
    pub string_keyed: Vec<(u32, String, String)>,
}

/// Symbols of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Functions in declaration order.
    pub fns: Vec<FnSym>,
    /// Structs in declaration order.
    pub structs: Vec<StructSym>,
    /// Crate this file belongs to (`itm-types`, … or `itm` for the root
    /// package), when the path shape identifies one.
    pub crate_name: Option<String>,
    /// `(crate, line)` for each distinct `itm_*::` path reference — the
    /// file's edge list in the crate dependency graph.
    pub crate_refs: Vec<(String, u32)>,
    /// `(name, line, token index)` of each bare-`pub`
    /// `fn`/`struct`/`enum`/`trait`/`type`/`const`/`static` outside test
    /// code.
    pub pub_items: Vec<(String, u32, usize)>,
    /// `(name, line)` of the [`pub_items`](Self::pub_items) nothing uses;
    /// `None` until [`SymbolTable::find_unused_pub`] has run, so a scan
    /// that never looked is not mistaken for one that found nothing.
    pub unused_pub: Option<Vec<(String, u32)>>,
}

/// Cross-file symbol table: per-file symbols plus the derived set of
/// hot-path struct names.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Per-file symbols, parallel to the scanned file list.
    pub files: Vec<FileSymbols>,
    /// Struct names referenced inside any campaign or merge fn.
    pub hot_structs: BTreeSet<String>,
}

impl SymbolTable {
    /// Build the table over a set of lexed files. `rels` and `models` are
    /// parallel; `rels` carries workspace-relative paths.
    pub fn build(rels: &[&str], models: &[&SourceModel]) -> SymbolTable {
        let mut files: Vec<FileSymbols> = rels
            .iter()
            .zip(models.iter())
            .map(|(rel, model)| analyze(model, rel))
            .collect();
        let struct_names: BTreeSet<String> = files
            .iter()
            .flat_map(|f| f.structs.iter().map(|s| s.name.clone()))
            .collect();
        let mut hot_structs = BTreeSet::new();
        for (fsyms, model) in files.iter_mut().zip(models.iter()) {
            for f in &fsyms.fns {
                if !(f.is_campaign || f.is_merge) {
                    continue;
                }
                for t in &model.tokens[f.body.0..f.body.1] {
                    if t.kind == TokKind::Ident && struct_names.contains(&t.text) {
                        hot_structs.insert(t.text.clone());
                    }
                }
            }
        }
        SymbolTable { files, hot_structs }
    }

    /// Mark the bare-`pub` items nothing uses (U001). A use is the name
    /// as an identifier in any other file, or in non-test code of the
    /// item's own file; names inside `use` declarations do not count, so
    /// a `pub use` re-export keeps nothing alive. Only meaningful over a
    /// whole workspace: `models` must be parallel to the files the table
    /// was built from.
    pub fn find_unused_pub(&mut self, models: &[&SourceModel]) {
        let in_use: Vec<Vec<bool>> = models.iter().map(|m| use_decl_mask(m)).collect();
        let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
        for (model, mask) in models.iter().zip(&in_use) {
            let named: BTreeSet<&str> = model
                .tokens
                .iter()
                .zip(mask)
                .filter(|(t, &u)| t.kind == TokKind::Ident && !u)
                .map(|(t, _)| t.text.as_str())
                .collect();
            for name in named {
                *files_naming.entry(name).or_insert(0) += 1;
            }
        }
        for ((fsyms, model), mask) in self.files.iter_mut().zip(models).zip(&in_use) {
            let decls: BTreeSet<usize> = fsyms.pub_items.iter().map(|p| p.2).collect();
            let mut unused = Vec::new();
            for (name, line, _) in &fsyms.pub_items {
                // The declaration itself makes its own file one of those
                // naming it.
                let elsewhere = files_naming.get(name.as_str()).copied().unwrap_or(0) > 1;
                let here = || {
                    model.tokens.iter().enumerate().any(|(i, t)| {
                        t.text == *name
                            && !mask[i]
                            && !decls.contains(&i)
                            && !model.line_is_test(t.line)
                    })
                };
                if !elsewhere && !here() {
                    unused.push((name.clone(), *line));
                }
            }
            fsyms.unused_pub = Some(unused);
        }
    }
}

/// Which crate does a workspace-relative path belong to?
pub fn crate_of(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let name = rest.split('/').next()?;
        if rest.strip_prefix(name)?.starts_with('/') {
            return Some(name.to_string());
        }
        return None;
    }
    for top in ["src/", "tests/", "examples/", "benches/"] {
        if rel.starts_with(top) {
            return Some("itm".to_string());
        }
    }
    None
}

/// Analyze one lexed file.
pub fn analyze(model: &SourceModel, rel: &str) -> FileSymbols {
    let mut out = FileSymbols {
        crate_name: crate_of(rel),
        ..FileSymbols::default()
    };
    collect_fns(model, &mut out);
    collect_structs(model, &mut out);
    collect_crate_refs(model, &mut out);
    collect_pub_items(model, &mut out);
    out
}

/// Find the matching `}` for the `{` at token index `open`. Returns the
/// index one past it (clamped to the stream end on imbalance).
fn match_braces(model: &SourceModel, open: usize) -> usize {
    let toks = &model.tokens;
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

fn collect_fns(model: &SourceModel, out: &mut FileSymbols) {
    let toks = &model.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Find the body `{` at paren depth 0, or `;` for bodyless decls.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" if paren == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j.max(i + 2);
            continue;
        };
        let end = match_braces(model, open);
        let body = (open, end);
        let name = name_tok.text.clone();
        let mut is_campaign = name.ends_with("_shard");
        let mut is_merge = false;
        for t in &toks[open..end] {
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "shard_bounds" => is_campaign = true,
                    "run_shards" => is_merge = true,
                    _ => {}
                }
            }
        }
        let loops = collect_scopes(model, body, &["for", "while", "loop"], &[]);
        let trace_gated = collect_scopes(model, body, &["if"], &["trace", "trace_enabled"]);
        out.fns.push(FnSym {
            name,
            line: toks[i].line,
            body,
            is_campaign,
            is_merge,
            loops,
            trace_gated,
        });
        // Continue *inside* the body so nested fns are collected too.
        i += 2;
    }
}

/// Collect brace-matched scopes opened by `keywords` inside `range`. When
/// `guard_idents` is non-empty, only scopes whose header (tokens between
/// the keyword and the opening brace) mentions one of those identifiers
/// qualify — this is how trace-gated `if` blocks are recognized.
fn collect_scopes(
    model: &SourceModel,
    range: (usize, usize),
    keywords: &[&str],
    guard_idents: &[&str],
) -> Vec<(usize, usize)> {
    let toks = &model.tokens;
    let mut scopes = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !keywords.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Header runs to the first `{` at paren depth 0.
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut guard_hit = guard_idents.is_empty();
        while j < range.1 {
            match toks[j].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren <= 0 => break,
                ";" if paren <= 0 => break,
                text => {
                    if toks[j].kind == TokKind::Ident && guard_idents.contains(&text) {
                        guard_hit = true;
                    }
                }
            }
            j += 1;
        }
        if j >= range.1 || toks[j].text != "{" {
            i = j;
            continue;
        }
        let end = match_braces(model, j).min(range.1);
        if guard_hit {
            scopes.push((j, end));
        }
        i = j + 1;
    }
    scopes
}

fn collect_structs(model: &SourceModel, out: &mut FileSymbols) {
    let toks = &model.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "struct" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Field-carrying structs only: the next `{` before any `;` / `(`
        // opens the field block (unit and tuple structs have no named
        // string-keyed map fields to inspect).
        let mut j = i + 2;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    body_open = Some(j);
                    break;
                }
                ";" | "(" => break,
                _ => {}
            }
            j += 1;
        }
        let mut sym = StructSym {
            name: name_tok.text.clone(),
            line: toks[i].line,
            string_keyed: Vec::new(),
        };
        if let Some(open) = body_open {
            let end = match_braces(model, open);
            let mut k = open;
            while k < end {
                let t = &toks[k];
                if t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "BTreeMap" | "BTreeSet")
                    && toks.get(k + 1).map(|x| x.text.as_str()) == Some("<")
                {
                    let key = string_key_type(model, k + 2);
                    if let Some(desc) = key {
                        sym.string_keyed.push((t.line, t.text.clone(), desc));
                    }
                }
                k += 1;
            }
            i = end;
        } else {
            i = j;
        }
        out.structs.push(sym);
    }
}

/// Does the type starting at token index `i` begin with `String` or
/// `Vec<String…`? Returns its display form when it does.
fn string_key_type(model: &SourceModel, i: usize) -> Option<String> {
    let toks = &model.tokens;
    let first = toks.get(i)?;
    if first.kind != TokKind::Ident {
        return None;
    }
    match first.text.as_str() {
        "String" => Some("String".to_string()),
        "Vec" => {
            if toks.get(i + 1).map(|t| t.text.as_str()) == Some("<")
                && toks.get(i + 2).map(|t| t.text.as_str()) == Some("String")
            {
                Some("Vec<String>".to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

fn collect_crate_refs(model: &SourceModel, out: &mut FileSymbols) {
    let toks = &model.tokens;
    let mut seen = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !t.text.starts_with("itm_") {
            continue;
        }
        if toks.get(i + 1).map(|x| x.text.as_str()) != Some("::") {
            continue;
        }
        let name = t.text.replace('_', "-");
        if seen.insert((name.clone(), t.line)) {
            out.crate_refs.push((name, t.line));
        }
    }
}

fn collect_pub_items(model: &SourceModel, out: &mut FileSymbols) {
    let toks = &model.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "pub" || model.line_is_test(t.line) {
            continue;
        }
        // Qualifiers between `pub` and `fn` (`const fn`, `unsafe fn`,
        // `extern "C" fn`); a `const` not followed by them is the item.
        let mut j = i + 1;
        while matches!(text(j), "unsafe" | "async" | "extern" | "\"")
            || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe"))
        {
            j += 1;
        }
        if !matches!(
            text(j),
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
        ) {
            continue;
        }
        let k = if text(j) == "static" && text(j + 1) == "mut" {
            j + 2
        } else {
            j + 1
        };
        if let Some(name) = toks
            .get(k)
            .filter(|n| n.kind == TokKind::Ident && n.text != "_")
        {
            out.pub_items.push((name.text.clone(), t.line, k));
        }
    }
}

/// Per token: does it sit inside a `use` declaration (`use` up to its
/// `;`)?
fn use_decl_mask(model: &SourceModel) -> Vec<bool> {
    let toks = &model.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            while i < toks.len() && toks[i].text != ";" {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    mask
}
