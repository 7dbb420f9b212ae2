//! The rule engine: determinism rules D4 and D5, applied to one lexed
//! source file at a time.
//!
//! | code | slug                | what it catches                                | crates                                                              |
//! |------|---------------------|------------------------------------------------|---------------------------------------------------------------------|
//! | D4   | `float-order`       | float accumulation over partition-ordered data | engine, parutil, netsim, routing, partition, core, snapshot, faults |
//! | D5   | `determinism-taint` | nondeterministic values flowing into sim state | all but bench                                                       |
//!
//! Every rule denies: any finding fails the scan. The crate column is
//! [`Rule::applies_to`]; crate names are directory names under
//! `crates/`, and the workspace `tests` member is `tests`. There is no
//! suppression comment: a false positive is fixed in the rule.
//!
//! Clippy holds the checks a lint can name (root `Cargo.toml`'s
//! `[workspace.lints.clippy]`, `crates/clippy.toml`):
//!
//! | former rule          | clippy lint                                                                   |
//! |----------------------|-------------------------------------------------------------------------------|
//! | D1 hash iteration    | `disallowed_methods` (`HashMap`/`HashSet` iterating methods), `iter_over_hash_type` |
//! | D2 wall clock        | `disallowed_types` (`Instant`, `SystemTime`), outside bench                   |
//! | D3 entropy           | `disallowed_types` (`RandomState`), outside bench                             |
//! | S1 unwrap / panic    | `unwrap_used`, `panic`                                                        |
//! | S2 narrowing casts   | `cast_possible_truncation`, in the engine and routing crates                  |
//! | allow with a reason  | `#[expect(.., reason = "..")]`, `allow_attributes_without_reason`             |
//!
//! Two gaps remain: a by-value `.into_iter()` on a `HashMap`/`HashSet`
//! (clippy cannot name a trait-impl method; D5 still taints it at
//! simulation sinks), and `.expect("")`, which no lint matches.
//!
//! Both rules are *scope-aware*: they walk the item tree produced by
//! [`crate::parser`] and analyze each non-test `fn` body, so
//! `#[cfg(test)]` modules and `#[test]` functions are exempt. Detection
//! is token-pattern based (no type inference). D5 runs a small
//! intra-procedural taint pass — identifiers bound from wall-clock /
//! entropy / hash-iteration / pointer-cast expressions are marked, the
//! marks propagate through `let` bindings and assignments to a
//! fixpoint, and a violation fires only where a tainted value reaches a
//! simulation-state sink (event times, seeds, emitted payloads,
//! snapshot writes). Hash collections are tracked from *declarations*:
//! any identifier declared in the file with a `HashMap`/`HashSet` type
//! (or initialized from one) is a hash identifier.

use crate::lexer::{lex, num_literal_is_float, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// The lint rules, both guarding determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    FloatOrder,
    DeterminismTaint,
}

impl Rule {
    pub const ALL: [Rule; 2] = [Rule::FloatOrder, Rule::DeterminismTaint];

    /// Short code used in reports (`D4`, `D5`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::FloatOrder => "D4",
            Rule::DeterminismTaint => "D5",
        }
    }

    /// Stable identifier used in reports.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::FloatOrder => "float-order",
            Rule::DeterminismTaint => "determinism-taint",
        }
    }

    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }

    /// Does this rule check files of `krate`?
    pub fn applies_to(self, krate: &str) -> bool {
        match self {
            // Crates whose float results feed a simulation run or the
            // state it consumes.
            Rule::FloatOrder => matches!(
                krate,
                "engine"
                    | "parutil"
                    | "netsim"
                    | "routing"
                    | "partition"
                    | "core"
                    | "snapshot"
                    | "faults"
            ),
            // Only the bench harness may observe host time or entropy.
            Rule::DeterminismTaint => krate != "bench",
        }
    }

    /// One-line rationale shown next to each finding.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::FloatOrder => {
                "float addition is not associative: accumulating across partitions/workers in \
                 arrival order gives different bits per schedule; reduce in a fixed index order"
            }
            Rule::DeterminismTaint => {
                "a nondeterministic value reaches simulation state here; derive event times, \
                 seeds, and emitted payloads from simulated state only"
            }
        }
    }

    /// Long-form rationale for `simlint --explain <rule>`: what the rule
    /// detects, why it matters for bit-identical simulation, and how to
    /// fix a finding.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::FloatOrder => {
                "D4 float-order\n\
                 \n\
                 Floating-point addition is not associative: (a+b)+c != a+(b+c) in the\n\
                 last bits. Summing values that arrive in partition, worker, thread, or\n\
                 outbox order therefore produces schedule-dependent results even when\n\
                 every addend is identical — the classic way 'bit-identical at any\n\
                 thread count' silently degrades to 'close enough'.\n\
                 \n\
                 Detection (scope-aware, non-test fn bodies in deterministic-critical\n\
                 crates): float accumulation — .sum::<f32|f64>(), .fold(<float init>, …)\n\
                 (max/min folds are order-safe and skipped), or `x += / *=` on a\n\
                 float-typed local inside a loop — where the data source names\n\
                 partition-shaped state (partition, shard, outbox, worker, thread,\n\
                 parallel, barrier, par_iter).\n\
                 \n\
                 Fix: reduce in a fixed index order (iterate 0..n over a slab), or sum\n\
                 per-partition locally and combine the per-partition results in\n\
                 partition-id order. Integer accumulation is always safe."
            }
            Rule::DeterminismTaint => {
                "D5 determinism-taint\n\
                 \n\
                 Clippy flags nondeterministic *reads* where they happen (Instant,\n\
                 SystemTime, RandomState, HashMap/HashSet iteration). D5 tracks the\n\
                 value afterwards: within each fn body, identifiers bound from\n\
                 wall-clock / entropy / hash-iteration / pointer-address expressions\n\
                 — including measured barrier waits (barrier_wait_us,\n\
                 total_barrier_wait_us), which are wall-clock readings even though\n\
                 they sit in ExecutionStats next to deterministic counters —\n\
                 are tainted, taint propagates through let bindings and (compound)\n\
                 assignments to a fixpoint, and a violation fires only where a tainted\n\
                 value reaches a simulation-state sink: SimTime constructors (from_ns,\n\
                 from_ms_f64, …), RNG seeding (seed_from_u64, from_seed), event\n\
                 emission (emit, schedule, send_datagram, start_flow), snapshot writes\n\
                 (put_u64, …), or assignment into .time / .seed fields.\n\
                 \n\
                 This catches laundered nondeterminism: `let t = queue_ptr as usize;\n\
                 … emit(SimTime::from_ns(t as u64), …)` fires at the emit, naming the\n\
                 original source line, and it sees a by-value `.into_iter()` over a\n\
                 hash collection, which no clippy lint names.\n\
                 \n\
                 Fix: derive the value from simulated state."
            }
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column in the original (untrimmed) line.
    pub col: u32,
    /// 0-based caret offset within `snippet` (leading whitespace of the
    /// original line already subtracted).
    pub caret: u32,
    /// Underline length in characters, ≥ 1.
    pub len: u32,
    /// The trimmed source line.
    pub snippet: String,
    pub message: String,
}

impl Violation {
    /// Build a violation with the caret fields derived from `col`, the
    /// underlined token `len`, and the original source line.
    pub fn at(
        rule: Rule,
        path: &str,
        line: u32,
        col: u32,
        len: u32,
        raw_line: &str,
        message: String,
    ) -> Violation {
        let snippet = raw_line.trim().replace('\t', " ");
        let lead = (raw_line.len() - raw_line.trim_start().len()) as u32;
        let caret = col
            .saturating_sub(1)
            .saturating_sub(lead)
            .min(snippet.chars().count() as u32);
        let len = len.max(1).min(
            (snippet.chars().count() as u32)
                .saturating_sub(caret)
                .max(1),
        );
        Violation {
            rule,
            path: path.to_string(),
            line,
            col,
            caret,
            len,
            snippet,
            message,
        }
    }
}

/// Iterator-producing methods whose call on a hash-typed identifier
/// makes D5 taint the result (hash order).
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Unordered collection type names whose declarations D5 tracks.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Scan one file's source. `path` is the workspace-relative path used
/// in reports; `krate` the crate name used for rule scoping.
pub fn scan_source(path: &str, krate: &str, src: &str) -> Vec<Violation> {
    let toks = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let hash_idents = collect_hash_idents(&toks);

    let mut out: Vec<Violation> = Vec::new();
    let mut push = |rule: Rule, line: u32, col: u32, len: u32, message: String| {
        if rule.applies_to(krate) {
            let raw = lines.get(line as usize - 1).copied().unwrap_or("");
            out.push(Violation::at(rule, path, line, col, len, raw, message));
        }
    };

    let items = crate::parser::parse(&toks);
    for item in crate::parser::flatten(&items) {
        if item.kind != crate::parser::ItemKind::Fn || item.is_test {
            continue;
        }
        let Some((open, close)) = item.body else {
            continue;
        };
        scan_float_order(&toks, open, close + 1, &mut push);
        scan_taint(&toks, open, close + 1, &hash_idents, &mut push);
    }

    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out.dedup();
    out
}

/// Identifier fragments that mark data as partition-shaped: values
/// keyed or produced per partition/worker/thread, whose arrival order
/// is a function of the parallel schedule.
const PARTITION_HINTS: [&str; 10] = [
    "partition",
    "shard",
    "outbox",
    "worker",
    "thread",
    "parallel",
    "barrier",
    "par_iter",
    "par_chunks",
    "rayon",
];

fn is_partition_hint(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    PARTITION_HINTS.iter().any(|h| lower.contains(h))
}

/// Walk backwards from token `i` to the start of the receiver chain
/// (statement boundary) and return the first partition-hinted
/// identifier found, if any.
fn chain_hint_before(toks: &[Tok], mut i: usize, lo: usize) -> Option<String> {
    let mut steps = 0;
    while i > lo {
        i -= 1;
        let t = &toks[i];
        if t.text == ";"
            || t.text == "{"
            || t.text == "}"
            || (t.kind == TokKind::Ident && (t.text == "let" || t.text == "for" || t.text == "in"))
        {
            return None;
        }
        if t.kind == TokKind::Ident && is_partition_hint(&t.text) {
            return Some(t.text.clone());
        }
        steps += 1;
        if steps > 48 {
            return None;
        }
    }
    None
}

/// Index just past the `)` matching the `(` at `open` (or `hi`).
fn match_paren(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < hi {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Index just past the `}` matching the `{` at `open` (or `hi`).
fn match_brace_tok(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < hi {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Float-typed locals of a fn body: `let [mut] x: f32/f64 …` or
/// `let [mut] x = <float literal>…`.
fn collect_float_locals(toks: &[Tok], lo: usize, hi: usize) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    let mut i = lo;
    while i < hi {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name.text.clone();
        let mut k = j + 1;
        let mut is_float = false;
        if toks.get(k).is_some_and(|t| t.text == ":") {
            // Type annotation up to `=` or `;`.
            while k < hi && toks[k].text != "=" && toks[k].text != ";" {
                if toks[k].kind == TokKind::Ident
                    && (toks[k].text == "f32" || toks[k].text == "f64")
                {
                    is_float = true;
                }
                k += 1;
            }
        }
        if !is_float && toks.get(k).is_some_and(|t| t.text == "=") {
            // First few initializer tokens: a float literal or an
            // explicit f32/f64 path (`f64::NEG_INFINITY`, `0.0f64`).
            for t in toks.iter().take((k + 6).min(hi)).skip(k + 1) {
                if (t.kind == TokKind::Num && num_literal_is_float(&t.text))
                    || (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
                {
                    is_float = true;
                    break;
                }
                if t.text == ";" {
                    break;
                }
            }
        }
        if is_float {
            set.insert(name);
        }
        i = j + 1;
    }
    set
}

/// D4 float-order: float accumulation whose input order depends on the
/// parallel schedule. Scans one fn body `[lo, hi)`.
fn scan_float_order(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    push: &mut impl FnMut(Rule, u32, u32, u32, String),
) {
    let float_locals = collect_float_locals(toks, lo, hi);
    let ident = |j: usize| -> Option<&str> {
        toks.get(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    for i in lo..hi {
        let t = &toks[i];
        // (a) `.sum::<f32|f64>()` on a partition-hinted chain.
        if t.text == "."
            && ident(i + 1) == Some("sum")
            && toks.get(i + 2).is_some_and(|t| t.text == ":")
            && toks.get(i + 3).is_some_and(|t| t.text == ":")
            && toks.get(i + 4).is_some_and(|t| t.text == "<")
        {
            if let Some(fty) = ident(i + 5).filter(|f| *f == "f32" || *f == "f64") {
                if let Some(hint) = chain_hint_before(toks, i, lo) {
                    let s = &toks[i + 1];
                    push(
                        Rule::FloatOrder,
                        s.line,
                        s.col,
                        3,
                        format!(
                            "`.sum::<{fty}>()` over partition-ordered data (`{hint}`): \
                             float accumulation order depends on the schedule"
                        ),
                    );
                }
            }
        }
        // (b) `.fold(<float init>, op)` on a hinted chain, unless the op
        // is an order-safe max/min reduction.
        if t.text == "."
            && ident(i + 1) == Some("fold")
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
        {
            let end = match_paren(toks, i + 2, hi);
            // First argument: up to the top-level comma.
            let mut depth = 0i32;
            let mut comma = end;
            for (j, a) in toks.iter().enumerate().take(end).skip(i + 3) {
                match a.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        comma = j;
                        break;
                    }
                    _ => {}
                }
            }
            let init_is_float = toks[i + 3..comma.min(hi)].iter().any(|a| {
                (a.kind == TokKind::Num && num_literal_is_float(&a.text))
                    || (a.kind == TokKind::Ident && (a.text == "f32" || a.text == "f64"))
            });
            let op_is_order_safe = toks[comma.min(hi)..end].iter().any(|a| {
                a.kind == TokKind::Ident
                    && (a.text == "max"
                        || a.text == "min"
                        || a.text == "maximum"
                        || a.text == "minimum")
            });
            if init_is_float && !op_is_order_safe {
                if let Some(hint) = chain_hint_before(toks, i, lo) {
                    let s = &toks[i + 1];
                    push(
                        Rule::FloatOrder,
                        s.line,
                        s.col,
                        4,
                        format!(
                            "float `.fold(…)` over partition-ordered data (`{hint}`): \
                             accumulation order depends on the schedule"
                        ),
                    );
                }
            }
        }
        // (c) `x += …` / `x *= …` on a float local inside a loop whose
        // source is partition-hinted.
        if t.kind == TokKind::Ident && t.text == "for" {
            let Some(body_open) = (i..hi).find(|&j| toks[j].text == "{") else {
                continue;
            };
            // Hint search in the loop-source expression (after `in`).
            let in_pos =
                (i..body_open).find(|&j| toks[j].kind == TokKind::Ident && toks[j].text == "in");
            let Some(in_pos) = in_pos else { continue };
            // `for i in 0..n` iterates in index order regardless of what
            // `n` is named — ranges are never schedule-ordered.
            let is_range = (in_pos + 1..body_open.saturating_sub(1))
                .any(|j| toks[j].text == "." && toks[j + 1].text == ".");
            if is_range {
                continue;
            }
            let hint = toks[in_pos + 1..body_open]
                .iter()
                .find(|a| a.kind == TokKind::Ident && is_partition_hint(&a.text))
                .map(|a| a.text.clone());
            let Some(hint) = hint else { continue };
            let body_end = match_brace_tok(toks, body_open, hi);
            for j in body_open..body_end.saturating_sub(2) {
                let a = &toks[j];
                if a.kind == TokKind::Ident
                    && float_locals.contains(a.text.as_str())
                    && (toks[j + 1].text == "+" || toks[j + 1].text == "*")
                    && toks[j + 2].text == "="
                {
                    let op = if toks[j + 1].text == "+" { "+=" } else { "*=" };
                    push(
                        Rule::FloatOrder,
                        a.line,
                        a.col,
                        a.text.len() as u32,
                        format!(
                            "float `{} {op} …` accumulates in `{hint}` iteration order: \
                             result depends on the parallel schedule",
                            a.text
                        ),
                    );
                }
            }
        }
    }
}

/// Nondeterminism sources D5 tracks by bare identifier.
const TAINT_SOURCE_IDENTS: [(&str, &str); 10] = [
    ("SystemTime", "wall clock"),
    ("UNIX_EPOCH", "wall clock"),
    ("elapsed", "wall clock"),
    ("from_entropy", "OS entropy"),
    ("thread_rng", "OS entropy"),
    ("OsRng", "OS entropy"),
    ("getrandom", "OS entropy"),
    ("addr_of", "pointer address"),
    // Measured barrier-wait times are wall-clock quantities even though
    // they live in ExecutionStats next to deterministic counters: they
    // vary with host load and thread scheduling. Feeding them back into
    // the simulation (e.g. as a rebalance signal) breaks bit-identity.
    ("barrier_wait_us", "measured barrier wait (wall clock)"),
    (
        "total_barrier_wait_us",
        "measured barrier wait (wall clock)",
    ),
];

/// Simulation-state sinks: a tainted value passed to one of these calls
/// (or assigned into a `.time` / `.seed` field) is a violation.
const TAINT_SINK_FNS: [&str; 19] = [
    "from_ns",
    "from_us",
    "from_ms",
    "from_secs",
    "from_ms_f64",
    "from_secs_f64",
    "seed_from_u64",
    "from_seed",
    "emit",
    "emit_to",
    "schedule",
    "schedule_at",
    "send_datagram",
    "start_flow",
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
    "put_f64",
];

const TAINT_SINK_FIELDS: [&str; 2] = ["time", "seed"];

/// A nondeterminism source found in `[lo, hi)`:
/// `(description, line, col)`.
fn find_taint_source(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    hash_idents: &BTreeSet<String>,
    tainted: &BTreeMap<String, (String, u32)>,
) -> Option<(String, u32)> {
    for j in lo..hi.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some((_, what)) = TAINT_SOURCE_IDENTS.iter().find(|(n, _)| *n == t.text) {
            return Some((format!("`{}` ({what})", t.text), t.line));
        }
        if t.text == "Instant"
            && toks.get(j + 1).is_some_and(|a| a.text == ":")
            && toks.get(j + 2).is_some_and(|a| a.text == ":")
            && toks.get(j + 3).is_some_and(|a| a.text == "now")
        {
            return Some(("`Instant::now()` (wall clock)".to_string(), t.line));
        }
        if t.text == "as_ptr" || (t.text == "as" && toks.get(j + 1).is_some_and(|a| a.text == "*"))
        {
            return Some(("pointer address".to_string(), t.line));
        }
        if hash_idents.contains(t.text.as_str())
            && toks.get(j + 1).is_some_and(|a| a.text == ".")
            && toks
                .get(j + 2)
                .is_some_and(|a| ITER_METHODS.contains(&a.text.as_str()))
        {
            return Some((format!("`{}` iteration (hash order)", t.text), t.line));
        }
        if let Some((desc, line)) = tainted.get(t.text.as_str()) {
            return Some((desc.clone(), *line));
        }
    }
    None
}

/// D5 determinism-taint: intra-procedural dataflow over one fn body
/// `[lo, hi)`. Tainted identifiers map to `(source description, source
/// line)` so the violation at the sink can name the origin.
fn scan_taint(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    hash_idents: &BTreeSet<String>,
    push: &mut impl FnMut(Rule, u32, u32, u32, String),
) {
    // Collect assignment records once: (target ident, rhs range).
    struct Assign {
        name: String,
        rhs: (usize, usize),
    }
    let mut assigns: Vec<Assign> = Vec::new();
    let mut tainted: BTreeMap<String, (String, u32)> = BTreeMap::new();

    let rhs_end = |start: usize| -> usize {
        let mut depth = 0i32;
        let mut j = start;
        while j < hi {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        hi
    };

    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        // `let [mut] name [: ty] = rhs ;`
        if t.kind == TokKind::Ident && t.text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|a| a.text == "mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|a| a.kind == TokKind::Ident) {
                let name = name.text.clone();
                let mut k = j + 1;
                while k < hi && toks[k].text != "=" && toks[k].text != ";" {
                    k += 1;
                }
                if k < hi && toks[k].text == "=" {
                    assigns.push(Assign {
                        name,
                        rhs: (k + 1, rhs_end(k + 1)),
                    });
                }
            }
            i += 1;
            continue;
        }
        // `name = rhs` / `name += rhs` (not `==`, not `.field =`).
        if t.kind == TokKind::Ident
            && (i == lo || (toks[i - 1].text != "." && toks[i - 1].text != ":"))
        {
            let eq_at = if toks.get(i + 1).is_some_and(|a| a.text == "=") {
                i + 1
            } else if toks
                .get(i + 1)
                .is_some_and(|a| matches!(a.text.as_str(), "+" | "-" | "*" | "/" | "%" | "^" | "|"))
                && toks.get(i + 2).is_some_and(|a| a.text == "=")
            {
                i + 2
            } else {
                0
            };
            // Exclude `==` and `=>` (match arms).
            if eq_at != 0
                && toks
                    .get(eq_at + 1)
                    .is_none_or(|a| a.text != "=" && a.text != ">")
            {
                assigns.push(Assign {
                    name: t.text.clone(),
                    rhs: (eq_at + 1, rhs_end(eq_at + 1)),
                });
            }
        }
        // `for pat in <source>` where source involves a hash collection:
        // the pattern bindings inherit hash-order taint.
        if t.kind == TokKind::Ident && t.text == "for" {
            if let Some(body_open) = (i..hi.min(i + 40)).find(|&j| toks[j].text == "{") {
                if let Some(in_pos) =
                    (i..body_open).find(|&j| toks[j].kind == TokKind::Ident && toks[j].text == "in")
                {
                    let src_has_hash = toks[in_pos + 1..body_open].iter().find(|a| {
                        a.kind == TokKind::Ident && hash_idents.contains(a.text.as_str())
                    });
                    if let Some(h) = src_has_hash {
                        let desc = format!("`{}` iteration (hash order)", h.text);
                        for p in &toks[i + 1..in_pos] {
                            if p.kind == TokKind::Ident && p.text != "mut" && p.text != "ref" {
                                tainted
                                    .entry(p.text.clone())
                                    .or_insert_with(|| (desc.clone(), t.line));
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }

    // Propagate to a fixpoint (bounded: each pass can only add names).
    for _ in 0..8 {
        let mut changed = false;
        for a in &assigns {
            if tainted.contains_key(&a.name) {
                continue;
            }
            if let Some(src) = find_taint_source(toks, a.rhs.0, a.rhs.1, hash_idents, &tainted) {
                tainted.insert(a.name.clone(), src);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Sinks: calls with a tainted (or directly nondeterministic)
    // argument, and assignments into `.time` / `.seed` fields.
    for j in lo..hi {
        let t = &toks[j];
        if t.kind == TokKind::Ident
            && TAINT_SINK_FNS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|a| a.text == "(")
            && toks.get(j.wrapping_sub(1)).is_none_or(|a| a.text != "fn")
        {
            let end = match_paren(toks, j + 1, hi);
            if let Some((desc, line)) =
                find_taint_source(toks, j + 2, end.saturating_sub(1), hash_idents, &tainted)
            {
                push(
                    Rule::DeterminismTaint,
                    t.line,
                    t.col,
                    t.text.len() as u32,
                    format!(
                        "nondeterministic value from {desc} at line {line} flows into `{}(…)`",
                        t.text
                    ),
                );
            }
        }
        if t.text == "."
            && toks.get(j + 1).is_some_and(|a| {
                a.kind == TokKind::Ident && TAINT_SINK_FIELDS.contains(&a.text.as_str())
            })
            && toks.get(j + 2).is_some_and(|a| a.text == "=")
            && toks.get(j + 3).is_none_or(|a| a.text != "=")
        {
            let f = &toks[j + 1];
            let mut k = j + 3;
            let mut depth = 0i32;
            let end = loop {
                if k >= hi {
                    break hi;
                }
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break k,
                    _ => {}
                }
                k += 1;
            };
            if let Some((desc, line)) = find_taint_source(toks, j + 3, end, hash_idents, &tainted) {
                push(
                    Rule::DeterminismTaint,
                    f.line,
                    f.col,
                    f.text.len() as u32,
                    format!(
                        "nondeterministic value from {desc} at line {line} assigned into `.{}`",
                        f.text
                    ),
                );
            }
        }
    }
}

/// Identifiers declared (or initialized) with a hash-collection type
/// anywhere in the file: `name: …HashMap<…>…`, `name = HashMap::…`.
fn collect_hash_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = &toks[i].text;
        // `name = [path::]HashMap::new()` / `HashSet::with_capacity(…)`:
        // walk the path after `=` while it stays `ident::ident::…`.
        if toks.get(i + 1).is_some_and(|t| t.text == "=") {
            let mut j = i + 2;
            while j < toks.len() && j - i < 12 {
                let t = &toks[j];
                if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                    set.insert(name.clone());
                    break;
                }
                if !(t.kind == TokKind::Ident || t.text == ":") {
                    break;
                }
                j += 1;
            }
        }
        // `name: <type containing HashMap/HashSet>` — walk the type
        // expression at angle-bracket depth, stopping at a top-level
        // terminator. Handles struct fields, fn params, and typed lets.
        if toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_none_or(|t| t.text != ":")
            && (i == 0 || (toks[i - 1].text != ":" && toks[i - 1].text != "."))
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut prev = "";
            while let Some(t) = toks.get(j) {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" if prev == "-" || prev == "=" => {} // `->`, `=>`
                    ">" => depth -= 1,
                    "," | ";" | ")" | "}" | "=" | "{" if depth <= 0 => break,
                    _ => {}
                }
                if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                    set.insert(name.clone());
                    break;
                }
                if j - i > 48 {
                    break; // give up on pathological types
                }
                prev = t.text.as_str();
                j += 1;
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clippy::findings;

    fn scan(krate: &str, src: &str) -> Vec<Violation> {
        scan_source("test.rs", krate, src)
    }

    fn rules_found(krate: &str, src: &str) -> Vec<Rule> {
        scan(krate, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn test_modules_are_exempt() {
        let body = r#"
                    let per_partition = vec![1.0f64];
                    let _ = per_partition.iter().sum::<f64>();
                    let t = clock.elapsed();
                    engine.emit(SimTime::from_ns(t), LpId(0), ());
        "#;
        let prod = format!("fn prod(engine: &mut Engine) {{ {body} }}");
        assert_eq!(
            rules_found("engine", &prod),
            vec![
                Rule::FloatOrder,
                Rule::DeterminismTaint,
                Rule::DeterminismTaint
            ]
        );
        let in_tests = format!(
            "#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ {body} }}\n    \
             fn helper(engine: &mut Engine) {{ {body} }}\n}}\n"
        );
        assert_eq!(rules_found("engine", &in_tests), vec![]);
    }

    #[test]
    fn test_fn_attribute_exempts_single_fn_only() {
        let src = r#"
            #[test]
            fn t() { let per_partition = vec![1.0f64]; let _ = per_partition.iter().sum::<f64>(); }
            fn prod(per_partition: &[f64]) -> f64 { per_partition.iter().sum::<f64>() }
        "#;
        let v = scan("engine", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    // The former rules D1–D3, S1 and S2 and the allow grammar are clippy
    // lints and `#[expect]` attributes now (the table above). These run
    // clippy under each member's real configuration on the cases the
    // rules pinned.

    const HASH_METHOD: &str = "clippy::disallowed_methods";
    const HASH_LOOP: &str = "clippy::iter_over_hash_type";
    const CLOCK_OR_ENTROPY: &str = "clippy::disallowed_types";
    const UNWRAP: &str = "clippy::unwrap_used";
    const NARROWING: &str = "clippy::cast_possible_truncation";

    #[test]
    fn d1_flags_iteration_not_lookup() {
        let src = r#"
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32> }
            fn f(s: &mut S) {
                s.m.insert(1, 2);
                let _ = s.m.get(&1);
                for (k, v) in s.m.iter() { let _ = (k, v); }
            }
        "#;
        assert_eq!(findings("engine", src), [(HASH_METHOD, 7), (HASH_LOOP, 7)]);
    }

    #[test]
    fn d1_flags_for_loop_over_hash() {
        let src = r#"
            fn f() {
                let mut seen = std::collections::HashSet::new();
                seen.insert(1u32);
                for x in &seen { let _ = x; }
            }
        "#;
        assert_eq!(findings("routing", src), [(HASH_LOOP, 5)]);
    }

    #[test]
    fn d1_ignores_out_of_scope_crates_and_vecs() {
        let src = r#"
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32>, v: Vec<u32> }
            fn f(s: &S) {
                for x in s.m.keys() { let _ = x; }
                for y in &s.v { let _ = y; }
            }
        "#;
        // The shims inherit no workspace lints and read no clippy.toml.
        assert!(findings("shims/rand", src).is_empty());
        // In scope, only the map iteration fires, not the Vec.
        assert_eq!(findings("netsim", src), [(HASH_METHOD, 5), (HASH_LOOP, 5)]);
    }

    #[test]
    fn d1_name_typed_as_vec_elsewhere_not_confused() {
        // `map` here is a Vec; same name as routing's HashMap fields in
        // other files, and clippy goes by the type.
        let src = "struct L { map: Vec<u32> } fn f(l: &L) { for x in l.map.iter() { let _ = x; } }";
        assert!(findings("partition", src).is_empty());
    }

    #[test]
    fn d2_wall_clock() {
        let src = "fn f() -> f64 { let t = std::time::Instant::now(); t.elapsed().as_secs_f64() }";
        assert_eq!(findings("engine", src), [(CLOCK_OR_ENTROPY, 1)]);
        assert!(findings("bench", src).is_empty(), "bench is exempt");
        assert_eq!(
            findings("core", "fn f() { let _ = std::time::SystemTime::now(); }"),
            [(CLOCK_OR_ENTROPY, 1)]
        );
    }

    #[test]
    fn d3_entropy() {
        // The rand shim has no entropy source; std's per-process hash
        // seed is the one left.
        let src = "fn f() -> u64 { \
                   std::hash::BuildHasher::hash_one(&std::hash::RandomState::new(), 7u32) }";
        assert_eq!(findings("workloads", src), [(CLOCK_OR_ENTROPY, 1)]);
        let seeded = "fn f() -> u64 { std::hash::BuildHasher::hash_one(\
                      &std::hash::BuildHasherDefault::<std::hash::DefaultHasher>::default(), 7u32) }";
        assert!(findings("workloads", seeded).is_empty());
    }

    #[test]
    fn s1_unwrap_expect_panic() {
        assert_eq!(
            findings("topology", "fn f(o: Option<u32>) -> u32 { o.unwrap() }"),
            [(UNWRAP, 1)]
        );
        // The documented gap: no lint matches an empty expect message.
        assert!(findings("topology", "fn f(o: Option<u32>) -> u32 { o.expect(\"\") }").is_empty());
        assert_eq!(
            findings("topology", "fn f() { panic!(\"boom\"); }"),
            [("clippy::panic", 1)]
        );
        // Documented expect and unwrap_or variants are fine.
        assert!(findings(
            "topology",
            "fn f(o: Option<u32>) -> u32 { o.expect(\"present by construction\") }"
        )
        .is_empty());
        assert!(findings("topology", "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }").is_empty());
    }

    #[test]
    fn s2_narrowing_casts_scoped_to_hot_crates() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert_eq!(findings("engine", src), [(NARROWING, 1)]);
        assert_eq!(findings("routing", src), [(NARROWING, 1)]);
        assert!(findings("topology", src).is_empty());
        // Widening casts are fine.
        assert!(findings("engine", "fn f(x: u32) -> u64 { x as u64 }").is_empty());
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let above = r#"
            fn f(o: Option<u32>) -> u32 {
                #[expect(clippy::unwrap_used, reason = "demo justification")]
                let v = o.unwrap();
                v + 1
            }
        "#;
        assert!(findings("engine", above).is_empty());
        let same_line = r#"
            fn f(o: Option<u32>) -> u32 {
                #[expect(clippy::unwrap_used, reason = "demo justification")] let v = o.unwrap();
                v + 1
            }
        "#;
        assert!(findings("engine", same_line).is_empty());
        let without = above.replace("#[expect", "// #[expect");
        assert_eq!(findings("engine", &without), [(UNWRAP, 4)]);
    }

    #[test]
    fn suppression_requires_reason_and_known_rule() {
        let no_reason = r#"
            fn f(o: Option<u32>) -> u32 {
                #[expect(clippy::unwrap_used)]
                let v = o.unwrap();
                v + 1
            }
        "#;
        assert_eq!(
            findings("engine", no_reason),
            [("clippy::allow_attributes_without_reason", 3)]
        );

        let unknown = "#[expect(clippy::no_such_rule, reason = \"because\")]\nfn f() {}";
        assert_eq!(findings("engine", unknown), [("unknown_lints", 1)]);
    }

    #[test]
    fn d1_flags_for_loop_over_field_path() {
        let src = r#"
            struct S { seen: std::collections::HashSet<u32> }
            fn f(s: &S) -> u32 {
                let mut n = 0;
                for v in &s.seen {
                    n += v;
                }
                n
            }
        "#;
        assert_eq!(findings("engine", src), [(HASH_LOOP, 5)]);
    }

    #[test]
    fn d1_flags_indexed_receiver_chain() {
        // The per-node-map pattern: `Vec<HashMap<…>>` indexed, then
        // iterated — the exact shape of the routing `sent` table.
        let src = r#"
            struct S { sent: Vec<std::collections::HashMap<usize, Vec<u16>>> }
            impl S {
                fn holders(&self, origin: usize) -> Vec<usize> {
                    self.sent[origin].keys().copied().collect()
                }
                fn lookup(&self, origin: usize, b: usize) -> bool {
                    self.sent[origin].contains_key(&b)
                }
            }
        "#;
        // keys() flagged, the contains_key lookup not.
        assert_eq!(findings("routing", src), [(HASH_METHOD, 5)]);
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_directive() {
        // Docs quote the suppression attribute mid-sentence; only an
        // attribute suppresses, and simlint reads neither.
        let src = "//! Suppress via `#[expect(clippy::unwrap_used, reason = \"..\")]`.\n\
                   // A table row | `#[expect(..)]` | also mentions it.\n\
                   fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert_eq!(findings("engine", src), [(UNWRAP, 3)]);
        assert_eq!(rules_found("engine", src), vec![]);
    }

    #[test]
    fn file_wide_suppression() {
        let src = r#"
            #![expect(clippy::cast_possible_truncation, reason = "indices are u16 by construction")]
            fn f(a: usize, b: usize) -> (u16, u16) { (a as u16, b as u16) }
        "#;
        assert!(findings("routing", src).is_empty());
        let without = src.replace("#![expect", "// #![expect");
        assert_eq!(findings("routing", &without), [(NARROWING, 3)]);
    }

    #[test]
    fn suppression_does_not_leak_to_other_rules_or_lines() {
        let src = r#"
            fn f(o: Option<u32>, m: &std::collections::HashMap<u32, u32>) -> u32 {
                #[expect(clippy::unwrap_used, reason = "only this unwrap")]
                let a = o.unwrap();
                let b = o.unwrap();
                let s: Vec<_> = m.keys().collect();
                a + b + s.len() as u32
            }
        "#;
        assert_eq!(
            findings("engine", src),
            [(UNWRAP, 5), (HASH_METHOD, 6), (NARROWING, 7)]
        );
    }

    #[test]
    fn d4_sum_over_partition_data_fires_index_order_does_not() {
        let hinted = r#"
            fn total(per_partition: &[f64]) -> f64 {
                per_partition.iter().sum::<f64>()
            }
        "#;
        assert_eq!(rules_found("engine", hinted), vec![Rule::FloatOrder]);
        // Same shape, unhinted source: a plain Vec summed in index
        // order is deterministic.
        let plain = r#"
            fn total(weights: &[f64]) -> f64 {
                weights.iter().sum::<f64>()
            }
        "#;
        assert_eq!(rules_found("engine", plain), vec![]);
        // Integer sums are always safe.
        let ints = r#"
            fn total(per_partition: &[u64]) -> u64 {
                per_partition.iter().sum::<u64>()
            }
        "#;
        assert_eq!(rules_found("engine", ints), vec![]);
        // Out-of-scope crate.
        assert_eq!(rules_found("workloads", hinted), vec![]);
    }

    #[test]
    fn d4_fold_fires_unless_order_safe_max_min() {
        let adding = r#"
            fn total(shard_sums: &[f64]) -> f64 {
                shard_sums.iter().fold(0.0f64, |a, b| a + b)
            }
        "#;
        assert_eq!(rules_found("partition", adding), vec![Rule::FloatOrder]);
        // max/min folds are order-independent reductions: the exact
        // shape used by core/hier.rs and topology/brite.rs.
        let maxing = r#"
            fn peak(worker_peaks: &[f64]) -> f64 {
                worker_peaks.iter().fold(f64::NEG_INFINITY, f64::max)
            }
        "#;
        assert_eq!(rules_found("partition", maxing), vec![]);
    }

    #[test]
    fn d4_float_accumulator_in_hinted_loop() {
        let src = r#"
            fn load(outboxes: &[Outbox]) -> f64 {
                let mut total = 0.0;
                for ob in outboxes.iter() {
                    total += ob.bytes as f64;
                }
                total
            }
        "#;
        let v = scan("parutil", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatOrder);
        assert_eq!(v[0].line, 5);
        // Integer accumulator in the same loop: fine.
        let ints = r#"
            fn load(outboxes: &[Outbox]) -> u64 {
                let mut total = 0u64;
                for ob in outboxes.iter() {
                    total += ob.bytes;
                }
                total
            }
        "#;
        assert_eq!(rules_found("parutil", ints), vec![]);
        // Float accumulator over an unhinted source: fine (index order).
        let plain = r#"
            fn load(links: &[Link]) -> f64 {
                let mut total = 0.0;
                for l in links.iter() {
                    total += l.bytes as f64;
                }
                total
            }
        "#;
        assert_eq!(rules_found("parutil", plain), vec![]);
    }

    #[test]
    fn d4_exempt_in_tests_and_suppressible() {
        let test_fn = r#"
            #[test]
            fn t() {
                let per_partition = vec![1.0f64];
                let _ = per_partition.iter().sum::<f64>();
            }
        "#;
        assert_eq!(rules_found("engine", test_fn), vec![]);
        // A comment no longer suppresses anything: the one fix for a
        // false positive is in the rule, and a true positive is fixed at
        // the site (sort by partition id, then reduce).
        let commented = r#"
            fn total(per_partition: &[f64]) -> f64 {
                // allow(float-order): summed after a barrier in partition-id order
                per_partition.iter().sum::<f64>()
            }
        "#;
        assert_eq!(rules_found("engine", commented), vec![Rule::FloatOrder]);
    }

    #[test]
    fn d5_taint_flows_through_bindings_into_sinks() {
        let src = r#"
            fn f(engine: &mut Engine) {
                let stamp = queue.as_ptr() as usize;
                let delay = stamp as u64;
                engine.emit(SimTime::from_ns(delay), LpId(0), ());
            }
        "#;
        let v = scan("engine", src);
        // Fires at both the SimTime constructor and the emit call.
        assert!(!v.is_empty(), "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::DeterminismTaint));
        assert!(
            v.iter().any(|x| x.message.contains("line 3")),
            "names the source line: {v:?}"
        );
    }

    #[test]
    fn d5_clean_flow_is_silent() {
        let src = r#"
            fn f(engine: &mut Engine, now: SimTime) {
                let delay = now.as_ns() + 5;
                engine.emit(SimTime::from_ns(delay), LpId(0), ());
            }
        "#;
        assert_eq!(rules_found("engine", src), vec![]);
    }

    #[test]
    fn d5_hash_iteration_taints_loop_bindings() {
        let src = r#"
            fn f(engine: &mut Engine, pending: &std::collections::HashMap<u64, Ev>) {
                for (flow, ev) in pending.iter() {
                    engine.emit(ev.delay, LpId(flow), ());
                }
            }
        "#;
        let found = rules_found("engine", src);
        assert!(found.contains(&Rule::DeterminismTaint), "{found:?}");
    }

    #[test]
    fn d5_tracks_every_hash_declaration_form() {
        // A struct field, iterated by method or by a `for` loop over its
        // path, and a `HashSet::new()` initializer drained by value with
        // `into_iter()` (which no clippy lint names) each taint what
        // they produce.
        let src = r#"
            struct S { seen: std::collections::HashSet<u32> }
            fn field(s: &S, e: &mut Engine) { let x = s.seen.iter().count(); e.emit(x, LpId(0), ()); }
            fn path(s: &S, e: &mut Engine) { for v in &s.seen { e.emit(v, LpId(0), ()); } }
            fn init(e: &mut Engine) {
                let mut live = std::collections::HashSet::new();
                live.insert(1u32);
                let n = live.into_iter().count();
                e.emit(n, LpId(0), ());
            }
        "#;
        let lines: Vec<u32> = scan("engine", src).iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![3, 4, 9]);
        // The same name typed as a Vec in another file is not a hash.
        let vec = "struct L { seen: Vec<u32> } \
                   fn f(l: &L, e: &mut Engine) { let x = l.seen.iter().count(); e.emit(x, LpId(0), ()); }";
        assert_eq!(rules_found("engine", vec), vec![]);
    }

    #[test]
    fn d5_field_sink_and_seed_sink() {
        let time_field = r#"
            fn f(ev: &mut Event) {
                let t = clock.elapsed();
                ev.time = t;
            }
        "#;
        let found = rules_found("engine", time_field);
        assert!(found.contains(&Rule::DeterminismTaint), "{found:?}");
        let seed = r#"
            fn f() -> ChaCha8Rng {
                let s = std::ptr::addr_of!(BUF) as usize;
                ChaCha8Rng::seed_from_u64(s as u64)
            }
        "#;
        let found = rules_found("workloads", seed);
        assert!(found.contains(&Rule::DeterminismTaint), "{found:?}");
    }

    #[test]
    fn d5_bench_is_exempt_and_comparisons_do_not_assign() {
        let src = r#"
            fn f(engine: &mut Engine) {
                let t = Instant::now().elapsed();
                engine.emit(SimTime::from_ns(t), LpId(0), ());
            }
        "#;
        assert_eq!(rules_found("bench", src), vec![]);
        // `==` and `=>` must not be parsed as assignments: `delay` would
        // otherwise be tainted by comparison against a tainted value.
        let cmp = r#"
            fn f(engine: &mut Engine, delay: u64) {
                let t = wall.elapsed();
                if delay == t { return; }
                match delay { 0 => {} _ => {} }
                engine.emit(SimTime::from_ns(delay), LpId(0), ());
            }
        "#;
        let found = rules_found("engine", cmp);
        assert_eq!(found, vec![], "{found:?}");
    }

    #[test]
    fn string_contents_never_fire() {
        let src = r#"fn f(e: &mut Engine) {
            let s = "partition.iter().sum::<f64>() elapsed Instant::now() as_ptr";
            e.emit(SimTime::from_ns(s.len() as u64), LpId(0), ());
        }"#;
        assert_eq!(rules_found("engine", src), vec![]);
    }
}
