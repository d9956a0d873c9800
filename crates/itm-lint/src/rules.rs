//! The rule set: determinism (D-rules), panic-safety (P-rules), float
//! hygiene (F-rules), and allow-annotation hygiene (A-rules).
//!
//! Every rule maps to an invariant of this workspace (see DESIGN.md §8):
//!
//! * **D001** — no wall-clock reads (`SystemTime::now`, `Instant::now`) in
//!   library crates. The simulator runs on virtual time
//!   (`itm_types::SimTime`); a wall-clock read makes output depend on the
//!   host scheduler.
//! * **D002** — no unseeded randomness (`thread_rng`, `from_entropy`,
//!   `rand::random`, `OsRng`). All randomness flows from the substrate
//!   seed through `SeedDomain`.
//! * **D003** — no `HashMap`/`HashSet` fields in types annotated
//!   `#[derive(Serialize)]` / `#[derive(Deserialize)]`. Unordered
//!   iteration feeding serialization makes byte output depend on hash
//!   order; use `BTreeMap`/`BTreeSet` or sort explicitly.
//! * **D004** — no thread spawns outside the registered executor file;
//!   parallelism must flow through `itm_obs::exec::ParallelExecutor` so the
//!   per-shard seed-domain discipline cannot be bypassed.
//! * **D005** — no raw allocator access (`std::alloc`, `GlobalAlloc`,
//!   `#[global_allocator]`) outside the registered wrapper file; memory
//!   accounting flows through `itm_obs::alloc` so per-phase attribution
//!   cannot be bypassed. (Harness code — binaries, benches, tests — may
//!   still *install* the wrapper with `#[global_allocator]`.)
//! * **P001** — no `unwrap()`, `expect()`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!` in non-test library code; return
//!   `ItmError` instead.
//! * **F001** — no `==`/`!=` against float literals; compare with an
//!   epsilon or restructure.
//! * **M001–M004 / C001–C002 / L001** — the scale, shard-safety, and
//!   layering families; their semantics live in [`crate::scale`] and the
//!   symbol layer they run on in [`crate::symbols`].
//! * **U001** — a bare-`pub` `fn`/`struct`/`enum`/`trait`/`type`/
//!   `const`/`static` in library code that no other workspace file names
//!   and no non-test code of its own file uses (a `pub use` re-export is
//!   not a use). Name-based: a common name used anywhere keeps every item
//!   of that name alive. Deliberate API is waived with an allow.
//! * **A001** — malformed `itm-lint: allow(...)` annotation (unknown rule
//!   id or missing reason).
//! * **A002** — an allow annotation that suppressed nothing.

use crate::lexer::{SourceModel, TokKind};
use crate::report::Finding;
use crate::scale::{self, Context};

/// All lintable rule ids, with one-line descriptions (stable order).
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "wall-clock read in library code (virtual time only)",
    ),
    (
        "D002",
        "unseeded randomness (all RNGs derive from the substrate seed)",
    ),
    (
        "D003",
        "HashMap/HashSet field in a Serialize/Deserialize type (unordered iteration feeds output)",
    ),
    (
        "D004",
        "thread spawn outside registered executor code (parallelism must flow through ParallelExecutor)",
    ),
    (
        "D005",
        "raw allocator access outside the registered wrapper (memory accounting flows through itm_obs::alloc)",
    ),
    (
        "P001",
        "unwrap/expect/panic in non-test library code (return ItmError instead)",
    ),
    (
        "F001",
        "float ==/!= comparison (use an epsilon or restructure)",
    ),
    (
        "M001",
        "clone/to_owned/to_string inside a campaign or merge loop (per-item owned copies on the hot path)",
    ),
    (
        "M002",
        "String/Vec<String> key in a BTreeMap/BTreeSet field of a hot-path struct (intern to u32 ids)",
    ),
    (
        "M003",
        "materialize-then-sort on a campaign merge path (emit sorted runs per shard and k-way merge)",
    ),
    (
        "M004",
        "per-item allocation inside a run_shards shard body (trace-gated blocks exempt)",
    ),
    (
        "C001",
        "shared mutable capture (&mut, RefCell, Mutex) in a closure handed to ParallelExecutor::map/run_with",
    ),
    (
        "C002",
        "iteration over a HashMap/HashSet local feeding a campaign or serialized flow (hash order leaks)",
    ),
    (
        "L001",
        "crate reference against the declared lint_layers.toml dependency direction",
    ),
    (
        "U001",
        "pub item in library code that nothing in the workspace uses (delete it, or allow it as deliberate API)",
    ),
    (
        "A001",
        "malformed itm-lint allow annotation (reason is mandatory)",
    ),
    ("A002", "unused itm-lint allow annotation"),
];

/// Is `id` a rule that an allow annotation may name?
pub fn allowable_rule(id: &str) -> bool {
    // A-rules police the annotations themselves and cannot be allowed.
    RULES.iter().any(|(r, _)| *r == id) && !id.starts_with('A')
}

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library crate sources: the full rule set applies.
    Library,
    /// Binaries, benches, tests, examples, and the lint/bench tooling
    /// crates: wall-clock and panics are legitimate here, but unseeded
    /// randomness and float equality are still flagged.
    Harness,
    /// Offline dependency shims: emulate external crates; only the
    /// unseeded-randomness rule applies.
    Shim,
}

impl FileClass {
    /// Does `rule` apply to files of this class?
    pub fn applies(self, rule: &str) -> bool {
        match self {
            FileClass::Library => true,
            FileClass::Harness => matches!(rule, "D002" | "F001" | "A001" | "A002"),
            FileClass::Shim => matches!(rule, "D002" | "A001" | "A002"),
        }
    }
}

/// One parsed `// itm-lint: allow(RULE): reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the annotation appears on.
    pub line: u32,
    /// The rule id it names.
    pub rule: String,
    /// 1-based line the annotation covers (its own line, or the next code
    /// line when the annotation stands alone).
    pub covers: u32,
}

/// Run every applicable rule over a lexed file. Returns the surviving
/// findings (allows already applied, allow-hygiene findings included).
///
/// `ctx` carries the symbol-layer context for the M/C/L families; when
/// `None` (bare line-level scans) those families are skipped.
pub fn check(
    model: &SourceModel,
    class: FileClass,
    file: &str,
    ctx: Option<&Context>,
) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    let mut mk = |rule: &'static str, line: u32, message: String| Finding {
        rule: rule.to_string(),
        file: file.to_string(),
        line,
        message,
        snippet: model.snippet(line),
    };

    let (mut allows, mut hygiene) = parse_allows(model, file);
    // U001 runs only over a whole workspace. Where it did not run, a U001
    // allow can be judged neither used nor unused, so it is left out.
    if ctx.is_none_or(|c| c.syms.unused_pub.is_none()) {
        allows.retain(|a| a.rule != "U001");
    }

    if class.applies("D001") {
        rule_d001(model, &mut raw, &mut mk);
    }
    if class.applies("D002") {
        rule_d002(model, &mut raw, &mut mk);
    }
    if class.applies("D003") {
        rule_d003(model, &mut raw, &mut mk);
    }
    if class.applies("D004") {
        rule_d004(model, &mut raw, &mut mk, file);
    }
    if class.applies("D005") {
        rule_d005(model, &mut raw, &mut mk, file);
    }
    if class.applies("P001") {
        rule_p001(model, &mut raw, &mut mk);
    }
    if class.applies("F001") {
        rule_f001(model, &mut raw, &mut mk);
    }
    if let Some(ctx) = ctx {
        if class.applies("M001") {
            scale::rule_m001(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("M002") {
            scale::rule_m002(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("M003") {
            scale::rule_m003(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("M004") {
            scale::rule_m004(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("C001") {
            scale::rule_c001(model, ctx, &mut raw, &mut mk, file);
        }
        if class.applies("C002") {
            scale::rule_c002(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("L001") {
            scale::rule_l001(model, ctx, &mut raw, &mut mk);
        }
        if class.applies("U001") {
            for (name, line) in ctx.syms.unused_pub.iter().flatten() {
                raw.push(mk(
                    "U001",
                    *line,
                    format!("pub `{name}` is named nowhere else in the workspace and unused outside tests here; delete it"),
                ));
            }
        }
    }

    // Apply allows: a finding on a covered line with a matching rule id is
    // suppressed; each allow must suppress at least one finding.
    let mut used = vec![false; allows.len()];
    let mut kept: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for (ai, a) in allows.iter().enumerate() {
            if a.rule == f.rule && a.covers == f.line {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (ai, a) in allows.iter().enumerate() {
        if !used[ai] {
            kept.push(Finding {
                rule: "A002".to_string(),
                file: file.to_string(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing — remove it or move it next to the violation",
                    a.rule
                ),
                snippet: model.snippet(a.line),
            });
        }
    }
    kept.append(&mut hygiene);
    kept.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    kept
}

/// Extract allow annotations and their hygiene findings (A001).
fn parse_allows(model: &SourceModel, file: &str) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (idx, comment) in model.comments.iter().enumerate() {
        let line = idx as u32 + 1;
        // An annotation is a comment whose content *starts* with
        // `itm-lint:` (after doc markers) — prose that merely mentions the
        // grammar, like this sentence, is not an annotation.
        let content = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        let Some(rest) = content.strip_prefix("itm-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let bad = |msg: &str| Finding {
            rule: "A001".to_string(),
            file: file.to_string(),
            line,
            message: msg.to_string(),
            snippet: model.snippet(line),
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(bad("itm-lint annotation must be `allow(RULE): reason`"));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(bad("unterminated allow(RULE) — missing `)`"));
            continue;
        };
        let rule = args[..close].trim().to_string();
        if !allowable_rule(&rule) {
            findings.push(bad(&format!(
                "allow names unknown or unallowable rule `{rule}`"
            )));
            continue;
        }
        let after = args[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            findings.push(bad(&format!(
                "allow({rule}) carries no reason — `allow({rule}): <why this is sound>`"
            )));
            continue;
        }
        // The annotation covers its own line when that line has code,
        // otherwise the next line that does.
        let mut covers = line;
        if !model.has_code.get(idx).copied().unwrap_or(false) {
            for (j, has) in model.has_code.iter().enumerate().skip(idx + 1) {
                if *has {
                    covers = j as u32 + 1;
                    break;
                }
            }
        }
        allows.push(Allow { line, rule, covers });
    }
    (allows, findings)
}

/// D001: `SystemTime::now()` / `Instant::now()`.
fn rule_d001(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || model.line_is_test(t.line) {
            continue;
        }
        if (t.text == "SystemTime" || t.text == "Instant")
            && toks.get(i + 1).map(|x| x.text.as_str()) == Some("::")
            && toks.get(i + 2).map(|x| x.text.as_str()) == Some("now")
        {
            out.push(mk(
                "D001",
                t.line,
                format!(
                    "{}::now() reads the wall clock; library code must use virtual time (itm_types::SimTime)",
                    t.text
                ),
            ));
        }
    }
}

/// D002: unseeded randomness entry points.
fn rule_d002(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || model.line_is_test(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" | "getrandom" => true,
            "random" => i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "rand",
            _ => false,
        };
        if hit {
            out.push(mk(
                "D002",
                t.line,
                format!(
                    "`{}` draws entropy outside the substrate seed; derive an RNG from SeedDomain instead",
                    t.text
                ),
            ));
        }
    }
}

/// D003: `HashMap`/`HashSet` fields inside `#[derive(Serialize)]` /
/// `#[derive(Deserialize)]` types.
fn rule_d003(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        // Find a #[derive(...)] containing Serialize/Deserialize.
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut is_serde_derive = false;
        let mut saw_derive = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" | "(" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ")" => depth -= 1,
                "derive" => saw_derive = true,
                "Serialize" | "Deserialize" if saw_derive => is_serde_derive = true,
                _ => {}
            }
            j += 1;
        }
        if !is_serde_derive {
            i = j + 1;
            continue;
        }
        // Skip further attributes/doc lines to the struct/enum keyword.
        let mut k = j + 1;
        while k < toks.len() {
            if toks[k].text == "#" && toks.get(k + 1).map(|t| t.text.as_str()) == Some("[") {
                let mut d = 0i32;
                k += 1;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "[" | "(" => d += 1,
                        ")" => d -= 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            break;
        }
        // Accept modifiers (pub, pub(crate), etc.) before struct/enum.
        let mut item = k;
        while item < toks.len() && !matches!(toks[item].text.as_str(), "struct" | "enum" | "union")
        {
            // Give up if we hit another item start — not a type derive.
            if matches!(toks[item].text.as_str(), "fn" | "impl" | "mod" | "trait") {
                break;
            }
            item += 1;
            if item - k > 6 {
                break;
            }
        }
        if item >= toks.len() || !matches!(toks[item].text.as_str(), "struct" | "enum" | "union") {
            i = j + 1;
            continue;
        }
        let type_name = toks
            .get(item + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // Walk the body (to matching `}`, or to `;` for unit/tuple structs)
        // flagging HashMap/HashSet mentions.
        let mut d = 0i32;
        let mut m = item;
        let mut opened = false;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "{" => {
                    d += 1;
                    opened = true;
                }
                "}" => {
                    d -= 1;
                    if opened && d == 0 {
                        break;
                    }
                }
                ";" if !opened => break,
                "HashMap" | "HashSet" if !model.line_is_test(toks[m].line) => {
                    let ordered = if toks[m].text == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    out.push(mk(
                        "D003",
                        toks[m].line,
                        format!(
                            "`{}` field in serializable type `{type_name}` iterates in hash order; use `{ordered}` or sort before output",
                            toks[m].text
                        ),
                    ));
                }
                _ => {}
            }
            m += 1;
        }
        i = m + 1;
    }
}

/// Library files allowed to spawn threads: the deterministic shard
/// executor. Everything else must route parallelism through it so the
/// per-shard seed-domain discipline cannot be bypassed. C001 exempts the
/// same file, which owns the shared work-queue state that rule hunts for.
pub(crate) const EXECUTOR_FILES: &[&str] = &["crates/itm-obs/src/exec.rs"];

/// D004: `thread::spawn` / `thread::scope` / `.spawn(` outside registered
/// executor files.
fn rule_d004(
    model: &SourceModel,
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
        let after_thread_path = i >= 2
            && toks[i - 1].text == "::"
            && matches!(toks[i - 2].text.as_str(), "thread" | "scope");
        let called = toks.get(i + 1).map(|x| x.text.as_str()) == Some("(");
        let hit = match t.text.as_str() {
            // `thread::spawn(...)` or any `.spawn(...)` builder call
            // (std::thread::Builder, scope handles).
            "spawn" => called && (after_thread_path || (i > 0 && toks[i - 1].text == ".")),
            // `thread::scope(...)`.
            "scope" => called && after_thread_path,
            _ => false,
        };
        if hit {
            out.push(mk(
                "D004",
                t.line,
                format!(
                    "`{}` spawns threads outside the registered executor; route parallelism through itm_obs::exec::ParallelExecutor",
                    t.text
                ),
            ));
        }
    }
}

/// The one library file allowed to touch the raw allocator interface:
/// the tracking wrapper itself. Everything else observes memory through
/// `itm_obs::alloc`'s accounting API, so per-phase attribution (and the
/// disabled-path byte-identity guarantee) cannot be bypassed.
const ALLOC_FILES: &[&str] = &["crates/itm-obs/src/alloc.rs"];

/// D005: raw allocator access (`std::alloc` paths, `GlobalAlloc`,
/// `#[global_allocator]`) outside registered wrapper files.
fn rule_d005(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
    file: &str,
) {
    if ALLOC_FILES.iter().any(|f| file.ends_with(f)) {
        return;
    }
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || model.line_is_test(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "GlobalAlloc" | "global_allocator" => true,
            // A `std::alloc` path segment (imports and direct calls both
            // start this way); a bare identifier named `alloc` is not the
            // allocator.
            "alloc" => i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std",
            _ => false,
        };
        if hit {
            out.push(mk(
                "D005",
                t.line,
                format!(
                    "`{}` reaches the raw allocator outside the registered wrapper; account memory through itm_obs::alloc",
                    t.text
                ),
            ));
        }
    }
}

/// P001: panicking calls in non-test code.
fn rule_p001(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || model.line_is_test(t.line) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let is_method = i > 0 && toks[i - 1].text == ".";
                let is_call = toks.get(i + 1).map(|x| x.text.as_str()) == Some("(");
                if is_method && is_call {
                    out.push(mk(
                        "P001",
                        t.line,
                        format!(
                            ".{}() can panic; propagate a Result<_, ItmError> instead",
                            t.text
                        ),
                    ));
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                let is_macro = toks.get(i + 1).map(|x| x.text.as_str()) == Some("!");
                // `core::panic` paths and `#[panic_handler]` would be odd
                // here; the bang is the discriminator we need.
                if is_macro {
                    out.push(mk(
                        "P001",
                        t.line,
                        format!("{}! aborts the caller; return ItmError instead", t.text),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// F001: `==` / `!=` with a float-literal operand.
fn rule_f001(
    model: &SourceModel,
    out: &mut Vec<Finding>,
    mk: &mut impl FnMut(&'static str, u32, String) -> Finding,
) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct
            || (t.text != "==" && t.text != "!=")
            || model.line_is_test(t.line)
        {
            continue;
        }
        let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let next_float = toks.get(i + 1).map(|x| x.kind) == Some(TokKind::Float);
        if prev_float || next_float {
            out.push(mk(
                "F001",
                t.line,
                format!(
                    "float literal compared with `{}`; exact float equality is fragile — compare with an epsilon",
                    t.text
                ),
            ));
        }
    }
}
