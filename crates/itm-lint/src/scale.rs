//! The scale/shard rule families (M/C/L), built on [`crate::symbols`].
//!
//! These rules exist for one reason: the ROADMAP's `--size internet`
//! target (≈73k ASes / ≈11M routed /24s) dies on memory long before it
//! dies on CPU. The M-series flags the allocation patterns that make hot
//! per-prefix state balloon, the C-series flags shard-safety hazards that
//! would break byte-identical parallel merges, and the L-series keeps the
//! crate DAG pointing in one direction so the substrate stays replaceable.
//!
//! * **M001** — `clone()` / `to_owned()` / `to_string()` inside a loop of
//!   a campaign or merge fn: per-item owned copies on the hot path.
//! * **M002** — `BTreeMap`/`BTreeSet` field keyed by `String` /
//!   `Vec<String>` in a hot-path struct: intern to dense `u32` ids
//!   (`itm_types::intern`) instead.
//! * **M003** — `.sort*()` on a campaign merge path: shards must emit
//!   sorted runs and the merge must be a k-way run merge, not
//!   materialize-then-sort (which holds every run *and* the sorted copy).
//! * **M004** — per-item allocation (`format!`, `vec!`, `String::from`,
//!   `String::new`, `Box::new`, `.to_vec()`) inside a loop of a shard fn;
//!   blocks gated on `…trace…` are exempt (they only run under capture).
//! * **C001** — shared mutable state (`RefCell`, `Mutex`, `RwLock`,
//!   `&mut`) inside the arguments of `ParallelExecutor::map` /
//!   `run_with*` / `measure_with*` calls: shard closures must be pure
//!   functions of the shard index.
//! * **C002** — iteration over a `HashMap`/`HashSet` local inside a
//!   campaign/merge/serializing fn: hash order leaking into flows, the
//!   flow-level generalization of D003.
//! * **L001** — `itm_*::` reference to a crate at the same or a higher
//!   layer of the declared `lint_layers.toml` DAG.

use crate::layers::Layers;
use crate::lexer::{SourceModel, TokKind};
use crate::report::Finding;
use crate::rules::EXECUTOR_FILES;
use crate::symbols::{FileSymbols, FnSym};
use std::collections::BTreeSet;

/// Cross-file context handed to the rule pass for one file.
pub struct Context<'a> {
    /// This file's symbols.
    pub syms: &'a FileSymbols,
    /// Workspace-wide hot-path struct names.
    pub hot_structs: &'a BTreeSet<String>,
    /// The layering DAG, when `lint_layers.toml` is present.
    pub layers: Option<&'a Layers>,
}

/// Method-call test: ident token `i` is `.name(…)`.
fn is_method_call(model: &SourceModel, i: usize) -> bool {
    let toks = &model.tokens;
    i > 0 && toks[i - 1].text == "." && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
}

/// M001: owned copies inside campaign/merge loops.
pub fn rule_m001(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    let mut flagged = BTreeSet::new();
    for f in ctx.syms.fns.iter().filter(|f| f.is_campaign || f.is_merge) {
        for (i, t) in toks.iter().enumerate().take(f.body.1).skip(f.body.0) {
            if t.kind != TokKind::Ident
                || !matches!(t.text.as_str(), "clone" | "to_owned" | "to_string")
                || !f.in_loop(i)
                || model.line_is_test(t.line)
                || !is_method_call(model, i)
                || !flagged.insert(i)
            {
                continue;
            }
            out.push(mk(
                "M001",
                t.line,
                format!(
                    ".{}() allocates an owned copy per iteration on the campaign path ({}); hoist it or intern the value",
                    t.text, f.name
                ),
            ));
        }
    }
}

/// M002: string-keyed ordered maps in hot-path structs.
pub fn rule_m002(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    for s in &ctx.syms.structs {
        if !ctx.hot_structs.contains(&s.name) {
            continue;
        }
        for (line, container, key) in &s.string_keyed {
            if model.line_is_test(*line) {
                continue;
            }
            out.push(mk(
                "M002",
                *line,
                format!(
                    "`{container}<{key}, …>` key in hot-path struct `{}` scales owned strings with the substrate; intern to u32 ids (itm_types::intern)",
                    s.name
                ),
            ));
        }
    }
}

/// M003: materialize-then-sort at campaign merge time.
pub fn rule_m003(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    let mut flagged = BTreeSet::new();
    for f in ctx.syms.fns.iter().filter(|f| f.is_merge) {
        for (i, t) in toks.iter().enumerate().take(f.body.1).skip(f.body.0) {
            if t.kind != TokKind::Ident
                || !t.text.starts_with("sort")
                || model.line_is_test(t.line)
                || !is_method_call(model, i)
                || !flagged.insert(i)
            {
                continue;
            }
            out.push(mk(
                "M003",
                t.line,
                format!(
                    ".{}() on the merge path of `{}` holds every run plus the sorted copy; emit sorted runs per shard and k-way merge them (itm_types::merge_sorted_runs)",
                    t.text, f.name
                ),
            ));
        }
    }
}

/// M004: per-item allocation in shard bodies (trace-gated blocks exempt).
pub fn rule_m004(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    let mut flagged = BTreeSet::new();
    for f in ctx.syms.fns.iter().filter(|f| f.is_campaign) {
        for i in f.body.0..f.body.1 {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !f.in_loop(i)
                || f.in_trace_gated(i)
                || model.line_is_test(t.line)
            {
                continue;
            }
            let next = toks.get(i + 1).map(|x| x.text.as_str());
            let then = toks.get(i + 2).map(|x| x.text.as_str());
            let what: Option<String> = match t.text.as_str() {
                "format" | "vec" if next == Some("!") => Some(format!("{}!", t.text)),
                "String" | "Box"
                    if next == Some("::")
                        && matches!(then, Some("from") | Some("new") | Some("with_capacity")) =>
                {
                    Some(format!("{}::{}", t.text, then.unwrap_or_default()))
                }
                "to_vec" if is_method_call(model, i) => Some(".to_vec()".to_string()),
                _ => None,
            };
            let Some(what) = what else { continue };
            if !flagged.insert(i) {
                continue;
            }
            out.push(mk(
                "M004",
                t.line,
                format!(
                    "{what} allocates per item inside shard fn `{}`; preallocate outside the loop or write into the shard's columnar output",
                    f.name
                ),
            ));
        }
    }
}

/// C001: shared mutable capture in executor/campaign-runner arguments.
pub fn rule_c001(
    model: &SourceModel,
    _ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
    file: &str,
) {
    if EXECUTOR_FILES.iter().any(|f| file.ends_with(f)) {
        return;
    }
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || model.line_is_test(t.line) {
            continue;
        }
        let is_exec_map = t.text == "map"
            && is_method_call(model, i)
            && i >= 2
            && matches!(toks[i - 2].text.as_str(), "exec" | "executor");
        let is_runner = matches!(
            t.text.as_str(),
            "run_with" | "run_with_faults" | "measure_with" | "measure_with_faults"
        ) && toks.get(i + 1).map(|x| x.text.as_str()) == Some("(");
        if !is_exec_map && !is_runner {
            continue;
        }
        // Walk the argument list.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "RefCell" | "Mutex" | "RwLock" if toks[j].kind == TokKind::Ident => {
                    out.push(mk(
                        "C001",
                        toks[j].line,
                        format!(
                            "`{}` captured by a closure handed to `{}`; shard closures must be pure functions of the shard index",
                            toks[j].text, t.text
                        ),
                    ));
                }
                "lock" | "borrow_mut" if is_method_call(model, j) => {
                    out.push(mk(
                        "C001",
                        toks[j].line,
                        format!(
                            ".{}() inside a `{}` argument mutates shared state across shards; merge shard results after the run instead",
                            toks[j].text, t.text
                        ),
                    ));
                }
                "&" if toks.get(j + 1).map(|x| x.text.as_str()) == Some("mut") => {
                    out.push(mk(
                        "C001",
                        toks[j].line,
                        format!(
                            "`&mut` capture inside a `{}` argument; merge shard results after the run instead of mutating shared state",
                            t.text
                        ),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// C002: iteration over a hash-container local feeding campaign or
/// serialized flows.
pub fn rule_c002(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    let mut flagged = BTreeSet::new();
    for f in &ctx.syms.fns {
        let serializing = toks[f.body.0..f.body.1]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "to_json_value");
        if !(f.is_campaign || f.is_merge || serializing) {
            continue;
        }
        let locals = hash_locals(model, f);
        if locals.is_empty() {
            continue;
        }
        for i in f.body.0..f.body.1 {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !locals.contains(&t.text) || model.line_is_test(t.line) {
                continue;
            }
            let iterated = match toks.get(i + 1).map(|x| x.text.as_str()) {
                Some(".") => matches!(
                    toks.get(i + 2).map(|x| x.text.as_str()),
                    Some("iter")
                        | Some("iter_mut")
                        | Some("into_iter")
                        | Some("keys")
                        | Some("values")
                        | Some("values_mut")
                        | Some("drain")
                ),
                _ => {
                    i >= 1 && toks[i - 1].text == "in"
                        || (i >= 2 && toks[i - 1].text == "&" && toks[i - 2].text == "in")
                }
            };
            if !iterated || !flagged.insert((t.text.clone(), t.line)) {
                continue;
            }
            out.push(mk(
                "C002",
                t.line,
                format!(
                    "iterating hash container `{}` in `{}` feeds hash order into a campaign/serialized flow; use a BTree container or sort the items first",
                    t.text, f.name
                ),
            ));
        }
    }
}

/// Names of locals in `f` declared as `HashMap` / `HashSet`.
fn hash_locals(model: &SourceModel, f: &FnSym) -> BTreeSet<String> {
    let toks = &model.tokens;
    let mut names = BTreeSet::new();
    let mut i = f.body.0;
    while i < f.body.1 {
        if toks[i].kind == TokKind::Ident && toks[i].text == "let" {
            // Binding name: the first ident after `let`, skipping `mut`.
            let mut j = i + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                j += 1;
            }
            let name = toks
                .get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            if let Some(name) = name {
                // Scan the statement (to `;` at depth 0) for a hash type.
                let mut depth = 0i32;
                let mut k = j + 1;
                let mut hashed = false;
                while k < f.body.1 {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        "HashMap" | "HashSet" => hashed = true,
                        _ => {}
                    }
                    k += 1;
                }
                if hashed {
                    names.insert(name);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    names
}

/// L001: crate references that point sideways or upward in the DAG.
pub fn rule_l001(
    model: &SourceModel,
    ctx: &Context,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let Some(layers) = ctx.layers else { return };
    let Some(own) = ctx.syms.crate_name.as_deref() else {
        return;
    };
    let Some(own_idx) = layers.index_of(own) else {
        return;
    };
    for (dep, line) in &ctx.syms.crate_refs {
        if model.line_is_test(*line) || dep == own {
            continue;
        }
        let Some(dep_idx) = layers.index_of(dep) else {
            continue;
        };
        if dep_idx >= own_idx {
            out.push(mk(
                "L001",
                *line,
                format!(
                    "`{own}` (layer {own_idx}) references `{dep}` (layer {dep_idx}); dependencies must point strictly downward in lint_layers.toml"
                ),
            ));
        }
    }
}
