//! The rule engine: determinism rules D1–D5 and safety rules S1–S2,
//! applied to one lexed source file at a time.
//!
//! | code | slug                    | what it catches                                  | crates                                                            |
//! |------|-------------------------|--------------------------------------------------|-------------------------------------------------------------------|
//! | D1   | `hash-iteration`        | iterating `HashMap`/`HashSet` state (lookups OK) | engine, routing, netsim, faults, partition, core, snapshot, simlint |
//! | D2   | `wall-clock`            | `Instant::now` / `SystemTime` reads              | all but bench                                                     |
//! | D3   | `entropy-rng`           | entropy-seeded RNGs (`from_entropy`, …)          | all but bench                                                     |
//! | D4   | `float-order`           | float accumulation over partition-ordered data   | engine, parutil, netsim, routing, partition, core, snapshot, faults |
//! | D5   | `determinism-taint`     | nondeterministic values flowing into sim state   | all but bench                                                     |
//! | S1   | `unwrap-audit`          | `.unwrap()`, `.expect("")`, `panic!`             | all                                                               |
//! | S2   | `cast-lossy`            | narrowing `as` casts in hot-path crates          | engine, routing                                                   |
//! |      | `malformed-suppression` | broken `simlint: allow(..)` directives           | all                                                               |
//!
//! Every rule denies: any finding fails the scan. The crate column is
//! [`Rule::applies_to`]; crate names are directory names under
//! `crates/`, and the workspace `tests` member is `tests`.
//!
//! Detection is token-pattern based (no type inference), so D1 works
//! from *declarations*: any identifier declared in the file with a
//! `HashMap`/`HashSet` type (or initialized from one) is tracked, and
//! iterator-producing calls on it — `.iter()`, `.keys()`, `.values()`,
//! `.drain()`, `.retain()`, `for _ in &x` — are flagged. `#[cfg(test)]`
//! modules and `#[test]` functions are exempt: test code never runs
//! inside the simulation, and timing/ordering quirks there cannot break
//! bit-identical parallel runs.
//!
//! D4 and D5 are *scope-aware*: they walk the item tree produced by
//! [`crate::parser`] and analyze each non-test `fn` body. D5 runs a
//! small intra-procedural taint pass — identifiers bound from
//! wall-clock / entropy / hash-iteration / pointer-cast expressions are
//! marked, the marks propagate through `let` bindings and assignments
//! to a fixpoint, and a violation fires only where a tainted value
//! reaches a simulation-state sink (event times, seeds, emitted
//! payloads, snapshot writes).
//!
//! Suppression: `// simlint: allow(<slug>[, <slug>…]) -- <reason>` on
//! the violating line or the line directly above it;
//! `// simlint: allow-file(<slug>) -- <reason>` anywhere in the file
//! for file-wide exemptions. The `-- <reason>` part is mandatory — an
//! allow without a written justification is itself a violation.

use crate::lexer::{lex, num_literal_is_float, str_literal_is_empty, Comment, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// The lint rules. Codes D1–D5 guard determinism, S1–S2 guard safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashIteration,
    WallClock,
    EntropyRng,
    FloatOrder,
    DeterminismTaint,
    UnwrapAudit,
    CastLossy,
    MalformedSuppression,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::HashIteration,
        Rule::WallClock,
        Rule::EntropyRng,
        Rule::FloatOrder,
        Rule::DeterminismTaint,
        Rule::UnwrapAudit,
        Rule::CastLossy,
        Rule::MalformedSuppression,
    ];

    /// Short code used in reports (`D1` … `S2`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::HashIteration => "D1",
            Rule::WallClock => "D2",
            Rule::EntropyRng => "D3",
            Rule::FloatOrder => "D4",
            Rule::DeterminismTaint => "D5",
            Rule::UnwrapAudit => "S1",
            Rule::CastLossy => "S2",
            Rule::MalformedSuppression => "SUP",
        }
    }

    /// Stable identifier used in suppressions and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::WallClock => "wall-clock",
            Rule::EntropyRng => "entropy-rng",
            Rule::FloatOrder => "float-order",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::UnwrapAudit => "unwrap-audit",
            Rule::CastLossy => "cast-lossy",
            Rule::MalformedSuppression => "malformed-suppression",
        }
    }

    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }

    /// Does this rule check files of `krate`?
    pub fn applies_to(self, krate: &str) -> bool {
        match self {
            // Deterministic-critical crates: anything that executes
            // during a simulation run or builds the state a run
            // consumes. snapshot must emit the same bytes for the same
            // world; simlint's own output must be diffable.
            Rule::HashIteration => matches!(
                krate,
                "engine"
                    | "routing"
                    | "netsim"
                    | "faults"
                    | "partition"
                    | "core"
                    | "snapshot"
                    | "simlint"
            ),
            // Only the bench harness may observe host time or entropy.
            Rule::WallClock | Rule::EntropyRng | Rule::DeterminismTaint => krate != "bench",
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
            // Hot paths where a silent truncation corrupts routing state.
            Rule::CastLossy => matches!(krate, "engine" | "routing"),
            // A suppression that silently fails to apply would hide a
            // violation; one without a reason defeats the audit.
            Rule::UnwrapAudit | Rule::MalformedSuppression => true,
        }
    }

    /// One-line rationale shown next to each finding.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::HashIteration => {
                "iteration order of HashMap/HashSet varies across runs; iterate a \
                 BTreeMap/BTreeSet or an explicitly sorted Vec instead (lookups are fine)"
            }
            Rule::WallClock => {
                "wall-clock reads make runs irreproducible; use virtual SimTime, or move \
                 the measurement into the bench crate"
            }
            Rule::EntropyRng => {
                "entropy-seeded RNGs break replay; seed explicitly (ChaCha8Rng::seed_from_u64)"
            }
            Rule::FloatOrder => {
                "float addition is not associative: accumulating across partitions/workers in \
                 arrival order gives different bits per schedule; reduce in a fixed index order"
            }
            Rule::DeterminismTaint => {
                "a nondeterministic value reaches simulation state here; derive event times, \
                 seeds, and emitted payloads from simulated state only"
            }
            Rule::UnwrapAudit => {
                "use expect(\"why this cannot fail\") or propagate a MassfError instead"
            }
            Rule::CastLossy => {
                "narrowing `as` cast silently truncates; justify with an allow comment or \
                 use try_into with an expect"
            }
            Rule::MalformedSuppression => {
                "write `simlint: allow(<rule>) -- <reason>` with a known rule and a reason"
            }
        }
    }

    /// Long-form rationale for `simlint --explain <rule>`: what the rule
    /// detects, why it matters for bit-identical simulation, and how to
    /// fix or justify a finding.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HashIteration => {
                "D1 hash-iteration\n\
                 \n\
                 Iterating a std HashMap/HashSet visits entries in hasher order, which\n\
                 depends on the per-process RandomState seed — two runs of the same\n\
                 binary see different orders. Any simulation decision derived from that\n\
                 order (event emission, tie-breaking, aggregation) diverges between\n\
                 runs and between partition counts, breaking the repeatability the\n\
                 conservative executor guarantees.\n\
                 \n\
                 Detection: identifiers declared or initialized with a HashMap/HashSet\n\
                 type are tracked per file; iterator-producing calls on them (.iter,\n\
                 .keys, .values, .drain, .retain, for … in) are flagged. Point lookups\n\
                 (get, contains_key, insert) are fine.\n\
                 \n\
                 Fix: iterate a BTreeMap/BTreeSet, or collect and sort before use. If\n\
                 order provably cannot escape (e.g. counting), justify with\n\
                 `// simlint: allow(hash-iteration) -- <why order cannot matter>`."
            }
            Rule::WallClock => {
                "D2 wall-clock\n\
                 \n\
                 Instant::now(), SystemTime, and UNIX_EPOCH read host time. Any value\n\
                 derived from them differs across runs and machines, so it must never\n\
                 feed simulated state. Simulated time is virtual (SimTime) and advances\n\
                 only through the event loop.\n\
                 \n\
                 Fix: use SimTime from the event being processed. Host-time measurement\n\
                 belongs in the bench crate (exempt by scope) or behind an allow with a\n\
                 reason explaining why the reading cannot reach simulation state."
            }
            Rule::EntropyRng => {
                "D3 entropy-rng\n\
                 \n\
                 from_entropy, thread_rng, OsRng, and getrandom seed randomness from the\n\
                 OS. Workload generation or tie-breaking seeded that way is different\n\
                 every run, defeating replay and divergence debugging.\n\
                 \n\
                 Fix: seed explicitly from configuration (ChaCha8Rng::seed_from_u64) so\n\
                 the whole run is a pure function of the scenario."
            }
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
                 D1–D3 flag nondeterministic *reads* at the site of the read. D5 tracks\n\
                 the value afterwards: within each fn body, identifiers bound from\n\
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
                 original source line.\n\
                 \n\
                 Fix: derive the value from simulated state; if the flow is provably\n\
                 benign (e.g. logging only), justify with\n\
                 `// simlint: allow(determinism-taint) -- <why>` at the sink."
            }
            Rule::UnwrapAudit => {
                "S1 unwrap-audit\n\
                 \n\
                 .unwrap() and .expect(\"\") panic without telling the operator what\n\
                 invariant broke. In a long-running simulation serving live queries, an\n\
                 unexplained panic is an outage with no diagnosis.\n\
                 \n\
                 Fix: expect(\"<why this cannot fail>\") for true invariants; propagate\n\
                 a structured MassfError otherwise."
            }
            Rule::CastLossy => {
                "S2 cast-lossy\n\
                 \n\
                 `as` casts to narrower types (u32, u16, i32, f32, …) silently truncate\n\
                 or round. In hot-path crates where indices legitimately exceed u32 at\n\
                 the million-host scale, a silent wrap corrupts state instead of\n\
                 failing.\n\
                 \n\
                 Fix: use try_into with an expect naming the bound, or justify the cast\n\
                 with an allow comment stating why the value fits."
            }
            Rule::MalformedSuppression => {
                "SUP malformed-suppression\n\
                 \n\
                 Suppressions are part of the audit trail: every allow must name a\n\
                 known rule and carry a `-- <reason>` justification. A directive that\n\
                 parses wrong would otherwise silently suppress nothing (or the wrong\n\
                 thing), so broken directives are themselves findings.\n\
                 \n\
                 Grammar: `// simlint: allow(<slug>[, <slug>…]) -- <reason>` on the\n\
                 violating line or the line above; `// simlint: allow-file(<slug>) --\n\
                 <reason>` anywhere for file-wide exemptions."
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

/// Iterator-producing methods that make D1 fire when called on a
/// hash-typed identifier.
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

/// Unordered collection type names whose declarations D1 tracks.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Identifiers whose mere presence means an entropy-seeded RNG (D3).
const ENTROPY_IDENTS: [&str; 4] = ["from_entropy", "thread_rng", "OsRng", "getrandom"];

/// Narrowing cast targets flagged by S2 (on 64-bit hosts the working
/// types are u64/usize/f64; these targets all lose range or precision).
const NARROW_TYPES: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Scan one file's source. `path` is the workspace-relative path used
/// in reports; `krate` the crate name used for rule scoping.
pub fn scan_source(path: &str, krate: &str, src: &str) -> Vec<Violation> {
    let (toks, comments) = lex(src);
    let lines: Vec<&str> = src.lines().collect();

    let in_test = test_regions(&toks);
    let sup = parse_suppressions(&comments);
    let hash_idents = collect_hash_idents(&toks);

    let mut out: Vec<Violation> = Vec::new();
    let mut push = |rule: Rule, line: u32, col: u32, len: u32, message: String| {
        if !rule.applies_to(krate) {
            return;
        }
        if rule != Rule::MalformedSuppression && sup.allows(rule, line) {
            return;
        }
        let raw = lines.get(line as usize - 1).copied().unwrap_or("");
        out.push(Violation::at(rule, path, line, col, len, raw, message));
    };

    for (line, why) in &sup.malformed {
        push(Rule::MalformedSuppression, *line, 1, u32::MAX, why.clone());
    }

    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        let ident = |j: usize| -> Option<&str> {
            toks.get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
        };
        let punct = |j: usize, c: char| toks.get(j).is_some_and(|t| t.text == c.to_string());

        // D1: `<hash>.iter()` and friends.
        if t.kind == TokKind::Ident && hash_idents.contains(t.text.as_str()) && punct(i + 1, '.') {
            if let Some(m) = ident(i + 2) {
                if ITER_METHODS.contains(&m) {
                    push(
                        Rule::HashIteration,
                        toks[i + 2].line,
                        toks[i + 2].col,
                        toks[i + 2].text.len() as u32,
                        format!("`{}.{m}()` iterates an unordered collection", t.text),
                    );
                }
            }
        }
        // D1: `<hash>[idx].iter()` — per-element maps (`Vec<HashMap<…>>`)
        // are indexed before the call; walk over the `[…]` to the method.
        if t.kind == TokKind::Ident && hash_idents.contains(t.text.as_str()) && punct(i + 1, '[') {
            let mut depth = 0i32;
            let mut j = i + 1;
            while let Some(b) = toks.get(j) {
                match b.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j - i > 24 {
                    break; // pathological index expression; give up
                }
                j += 1;
            }
            if depth == 0 && punct(j + 1, '.') {
                if let Some(m) = ident(j + 2) {
                    if ITER_METHODS.contains(&m) {
                        push(
                            Rule::HashIteration,
                            toks[j + 2].line,
                            toks[j + 2].col,
                            toks[j + 2].text.len() as u32,
                            format!("`{}[…].{m}()` iterates an unordered collection", t.text),
                        );
                    }
                }
            }
        }
        // D1: `for pat in [&[mut]] <hash> {`.
        if t.kind == TokKind::Ident && t.text == "for" {
            if let Some((name, line, col)) = for_loop_over_ident(&toks, i) {
                if hash_idents.contains(name.as_str()) {
                    push(
                        Rule::HashIteration,
                        line,
                        col,
                        name.len() as u32,
                        format!("`for … in {name}` iterates an unordered collection"),
                    );
                }
            }
        }
        // D2: Instant::now, SystemTime, UNIX_EPOCH.
        if t.kind == TokKind::Ident {
            if t.text == "Instant"
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("now")
            {
                push(
                    Rule::WallClock,
                    t.line,
                    t.col,
                    "Instant::now".len() as u32,
                    "`Instant::now()` wall-clock read".to_string(),
                );
            }
            if t.text == "SystemTime" || t.text == "UNIX_EPOCH" {
                push(
                    Rule::WallClock,
                    t.line,
                    t.col,
                    t.text.len() as u32,
                    format!("`{}` wall-clock read", t.text),
                );
            }
        }
        // D3: entropy-seeded RNG.
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            push(
                Rule::EntropyRng,
                t.line,
                t.col,
                t.text.len() as u32,
                format!("`{}` draws seed material from OS entropy", t.text),
            );
        }
        // S1: `.unwrap()`, `.expect("")`, `panic!`.
        if t.text == "." && toks.get(i).is_some_and(|t| t.kind == TokKind::Punct) {
            if ident(i + 1) == Some("unwrap") && punct(i + 2, '(') && punct(i + 3, ')') {
                push(
                    Rule::UnwrapAudit,
                    toks[i + 1].line,
                    toks[i + 1].col,
                    "unwrap".len() as u32,
                    "`.unwrap()` panics without a message".to_string(),
                );
            }
            if ident(i + 1) == Some("expect")
                && punct(i + 2, '(')
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.kind == TokKind::Str && str_literal_is_empty(&t.text))
            {
                push(
                    Rule::UnwrapAudit,
                    toks[i + 1].line,
                    toks[i + 1].col,
                    "expect".len() as u32,
                    "`.expect(\"\")` carries no justification".to_string(),
                );
            }
        }
        if t.kind == TokKind::Ident && t.text == "panic" && punct(i + 1, '!') {
            push(
                Rule::UnwrapAudit,
                t.line,
                t.col,
                "panic!".len() as u32,
                "`panic!` in non-test code".to_string(),
            );
        }
        // S2: narrowing `as` cast.
        if t.kind == TokKind::Ident && t.text == "as" {
            if let Some(target) = ident(i + 1) {
                if NARROW_TYPES.contains(&target) {
                    let tgt = &toks[i + 1];
                    let len = if tgt.line == t.line {
                        tgt.col + tgt.text.len() as u32 - t.col
                    } else {
                        2
                    };
                    push(
                        Rule::CastLossy,
                        t.line,
                        t.col,
                        len,
                        format!("narrowing cast `as {target}`"),
                    );
                }
            }
        }
    }

    // D4 / D5: scope-aware passes over each non-test fn body.
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

/// For a `for` keyword at token `i`, return the loop source if it is a
/// bare identifier (optionally `&`/`&mut`-prefixed): the tokens between
/// `in` and the loop body `{`. Returns `(name, line, col)` of the final
/// path segment naming the collection.
fn for_loop_over_ident(toks: &[Tok], i: usize) -> Option<(String, u32, u32)> {
    // Find `in` before the body opens; the pattern cannot contain `in`.
    let mut j = i + 1;
    let mut guard = 0;
    while j < toks.len() && !(toks[j].kind == TokKind::Ident && toks[j].text == "in") {
        if toks[j].text == "{" || toks[j].text == ";" {
            return None; // not a for-loop shape we understand
        }
        j += 1;
        guard += 1;
        if guard > 64 {
            return None;
        }
    }
    // Collect expression tokens until the body `{`.
    let mut expr: Vec<&Tok> = Vec::new();
    let mut k = j + 1;
    while k < toks.len() && toks[k].text != "{" {
        expr.push(&toks[k]);
        k += 1;
        if expr.len() > 8 {
            return None; // complex expression: handled by method rules
        }
    }
    // Accept `x` and dotted paths `a.b.x`, with optional `&`/`&mut`:
    // the *last* segment names the collection being iterated.
    let names: Vec<&&Tok> = expr
        .iter()
        .filter(|t| !(t.text == "&" || t.text == "mut"))
        .collect();
    let mut expect_ident = true;
    for t in &names {
        let ok = if expect_ident {
            t.kind == TokKind::Ident
        } else {
            t.text == "."
        };
        if !ok {
            return None;
        }
        expect_ident = !expect_ident;
    }
    match names.last() {
        Some(last) if !expect_ident => Some((last.text.clone(), last.line, last.col)),
        _ => None,
    }
}

/// Mark tokens inside `#[cfg(test)]` items and `#[test]` functions.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    t => attr.push(t),
                }
                j += 1;
            }
            let is_test_attr = matches!(attr.as_slice(), ["test"])
                || (attr.first() == Some(&"cfg")
                    && attr.contains(&"test")
                    && !attr.contains(&"not"));
            if is_test_attr {
                // Skip further attributes, then mark to the end of the
                // annotated item (its brace-balanced body, or `;`).
                let mut k = j;
                while k < toks.len()
                    && toks[k].text == "#"
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some("[")
                {
                    let mut d = 0usize;
                    loop {
                        match toks.get(k).map(|t| t.text.as_str()) {
                            Some("[") => d += 1,
                            Some("]") => {
                                d -= 1;
                                if d == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            None => break,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                let body_start = k;
                let mut brace = 0usize;
                let mut opened = false;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => {
                            brace += 1;
                            opened = true;
                        }
                        "}" => {
                            brace = brace.saturating_sub(1);
                        }
                        ";" if !opened => break, // e.g. `#[cfg(test)] use …;`
                        _ => {}
                    }
                    k += 1;
                    if opened && brace == 0 {
                        break;
                    }
                }
                for flag in in_test.iter_mut().take(k).skip(body_start.min(i)) {
                    *flag = true;
                }
                // Also cover the attribute itself.
                for flag in in_test.iter_mut().take(j).skip(i) {
                    *flag = true;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
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

/// Parsed suppression directives of one file.
pub(crate) struct Suppressions {
    /// Line → rules allowed on that line and the next.
    site: BTreeMap<u32, Vec<Rule>>,
    /// File-wide allows.
    file: Vec<Rule>,
    /// Broken directives: `(line, explanation)`.
    malformed: Vec<(u32, String)>,
}

impl Suppressions {
    pub(crate) fn allows(&self, rule: Rule, line: u32) -> bool {
        if self.file.contains(&rule) {
            return true;
        }
        let at = |l: u32| self.site.get(&l).is_some_and(|rs| rs.contains(&rule));
        at(line) || (line > 1 && at(line - 1))
    }
}

pub(crate) fn parse_suppressions(comments: &[Comment]) -> Suppressions {
    let mut sup = Suppressions {
        site: BTreeMap::new(),
        file: Vec::new(),
        malformed: Vec::new(),
    };
    for c in comments {
        // A directive must be the whole comment: the text after the
        // comment markers starts with `simlint:`. Prose that merely
        // *mentions* the syntax (docs, tables) is not a directive.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(directive) = body.strip_prefix("simlint:").map(str::trim) else {
            continue;
        };
        let (file_wide, rest) = if let Some(r) = directive.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = directive.strip_prefix("allow") {
            (false, r)
        } else {
            sup.malformed.push((
                c.line,
                format!("unknown simlint directive `{directive}` (expected allow/allow-file)"),
            ));
            continue;
        };
        let rest = rest.trim_start();
        let Some(inner) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            sup.malformed
                .push((c.line, "allow directive missing `(<rule>)`".to_string()));
            continue;
        };
        let (rule_list, tail) = inner;
        let reason = tail.trim_start();
        let reason = reason.strip_prefix("--").map(str::trim);
        if reason.is_none_or(str::is_empty) {
            sup.malformed.push((
                c.line,
                "allow directive missing `-- <reason>` justification".to_string(),
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for slug in rule_list.split(',') {
            let slug = slug.trim();
            match Rule::from_slug(slug) {
                Some(r) => rules.push(r),
                None => {
                    sup.malformed
                        .push((c.line, format!("allow names unknown rule `{slug}`")));
                    bad = true;
                }
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        if file_wide {
            sup.file.extend(rules);
        } else {
            sup.site.entry(c.line).or_default().extend(rules);
        }
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(krate: &str, src: &str) -> Vec<Violation> {
        scan_source("test.rs", krate, src)
    }

    fn rules_found(krate: &str, src: &str) -> Vec<Rule> {
        scan(krate, src).into_iter().map(|v| v.rule).collect()
    }

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
        let v = scan("engine", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashIteration);
        assert_eq!(v[0].line, 7);
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
        // `seen = … HashSet ::` initialization form.
        assert_eq!(rules_found("routing", src), vec![Rule::HashIteration]);
    }

    #[test]
    fn d1_ignores_out_of_scope_crates_and_vecs() {
        let src = r#"
            struct S { m: HashMap<u32, u32>, v: Vec<u32> }
            fn f(s: &S) {
                for x in s.m.keys() { let _ = x; }
                for y in &s.v { let _ = y; }
            }
        "#;
        assert_eq!(rules_found("workloads", src), vec![]);
        // In scope, only the map iteration fires, not the Vec.
        assert_eq!(rules_found("netsim", src), vec![Rule::HashIteration]);
    }

    #[test]
    fn d1_name_typed_as_vec_elsewhere_not_confused() {
        // `map` here is a Vec; same name as routing's HashMap fields in
        // other files, but tracking is per file.
        let src = "struct L { map: Vec<u32> } fn f(l: &L) { for x in l.map.iter() { let _ = x; } }";
        assert_eq!(rules_found("partition", src), vec![]);
    }

    #[test]
    fn d2_wall_clock() {
        let src = "fn f() -> f64 { let t = Instant::now(); t.elapsed().as_secs_f64() }";
        assert_eq!(rules_found("engine", src), vec![Rule::WallClock]);
        assert_eq!(rules_found("bench", src), vec![], "bench is exempt");
        assert_eq!(
            rules_found("core", "fn f() { let _ = SystemTime::now(); }"),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn d3_entropy() {
        let src = "fn f() { let mut rng = ChaCha8Rng::from_entropy(); rng.gen::<u64>(); }";
        assert_eq!(rules_found("workloads", src), vec![Rule::EntropyRng]);
        let seeded = "fn f() { let mut rng = ChaCha8Rng::seed_from_u64(7); rng.gen::<u64>(); }";
        assert_eq!(rules_found("workloads", seeded), vec![]);
    }

    #[test]
    fn s1_unwrap_expect_panic() {
        assert_eq!(
            rules_found("topology", "fn f(o: Option<u32>) -> u32 { o.unwrap() }"),
            vec![Rule::UnwrapAudit]
        );
        assert_eq!(
            rules_found("topology", "fn f(o: Option<u32>) -> u32 { o.expect(\"\") }"),
            vec![Rule::UnwrapAudit]
        );
        assert_eq!(
            rules_found("topology", "fn f() { panic!(\"boom\"); }"),
            vec![Rule::UnwrapAudit]
        );
        // Documented expect and unwrap_or variants are fine.
        assert_eq!(
            rules_found(
                "topology",
                "fn f(o: Option<u32>) -> u32 { o.expect(\"present by construction\") }"
            ),
            vec![]
        );
        assert_eq!(
            rules_found("topology", "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }"),
            vec![]
        );
    }

    #[test]
    fn s2_narrowing_casts_scoped_to_hot_crates() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert_eq!(rules_found("engine", src), vec![Rule::CastLossy]);
        assert_eq!(rules_found("routing", src), vec![Rule::CastLossy]);
        assert_eq!(rules_found("topology", src), vec![]);
        // Widening casts are fine.
        assert_eq!(
            rules_found("engine", "fn f(x: u32) -> u64 { x as u64 }"),
            vec![]
        );
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
            fn prod(o: Option<u32>) -> u32 { o.expect("fine") }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let x: Option<u32> = Some(1);
                    assert_eq!(x.unwrap(), 1);
                    let t = Instant::now();
                    let _ = t;
                }
            }
        "#;
        assert_eq!(rules_found("engine", src), vec![]);
    }

    #[test]
    fn test_fn_attribute_exempts_single_fn_only() {
        let src = r#"
            #[test]
            fn t() { let x: Option<u32> = Some(1); let _ = x.unwrap(); }
            fn prod(o: Option<u32>) -> u32 { o.unwrap() }
        "#;
        let v = scan("engine", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let above = r#"
            fn f(o: Option<u32>) -> u32 {
                // simlint: allow(unwrap-audit) -- demo justification
                o.unwrap()
            }
        "#;
        assert_eq!(rules_found("engine", above), vec![]);
        let trailing = r#"
            fn f(o: Option<u32>) -> u32 {
                o.unwrap() // simlint: allow(unwrap-audit) -- demo justification
            }
        "#;
        assert_eq!(rules_found("engine", trailing), vec![]);
    }

    #[test]
    fn suppression_requires_reason_and_known_rule() {
        let no_reason = r#"
            fn f(o: Option<u32>) -> u32 {
                // simlint: allow(unwrap-audit)
                o.unwrap()
            }
        "#;
        let found = rules_found("engine", no_reason);
        assert!(found.contains(&Rule::MalformedSuppression), "{found:?}");
        assert!(found.contains(&Rule::UnwrapAudit), "must not suppress");

        let unknown = "// simlint: allow(no-such-rule) -- because\nfn f() {}";
        assert_eq!(
            rules_found("engine", unknown),
            vec![Rule::MalformedSuppression]
        );
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
        let v = scan("engine", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashIteration);
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
        let v = scan("routing", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashIteration);
        assert_eq!(v[0].line, 5, "keys() flagged, contains_key lookup not");
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_directive() {
        // Docs (including simlint's own) quote the suppression grammar
        // mid-sentence; only a comment *starting* with `simlint:` is one.
        let src = "//! Suppress via `// simlint: allow(<rule>) -- <reason>` comments.\n\
                   // A table row | `simlint: allow(..)` | also mentions it.\n\
                   fn f() {}\n";
        assert_eq!(rules_found("engine", src), vec![]);
    }

    #[test]
    fn file_wide_suppression() {
        let src = r#"
            // simlint: allow-file(cast-lossy) -- indices are u16 by construction
            fn f(a: usize, b: usize) -> (u16, u16) { (a as u16, b as u16) }
        "#;
        assert_eq!(rules_found("routing", src), vec![]);
    }

    #[test]
    fn suppression_does_not_leak_to_other_rules_or_lines() {
        let src = r#"
            fn f(o: Option<u32>, m: &std::collections::HashMap<u32, u32>) -> u32 {
                // simlint: allow(unwrap-audit) -- only the unwrap
                o.unwrap();
                let s: Vec<_> = m.keys().collect();
                s.len() as u32
            }
        "#;
        // The HashMap parameter form: `m: &std::collections::HashMap<…>`.
        let found = rules_found("engine", src);
        assert_eq!(
            found,
            vec![Rule::HashIteration, Rule::CastLossy],
            "{found:?}"
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
        let allowed = r#"
            fn total(per_partition: &[f64]) -> f64 {
                // simlint: allow(float-order) -- summed after a barrier in partition-id order
                per_partition.iter().sum::<f64>()
            }
        "#;
        assert_eq!(rules_found("engine", allowed), vec![]);
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
        let src =
            r#"fn f() -> &'static str { "HashMap::iter() Instant::now() panic! from_entropy" }"#;
        assert_eq!(rules_found("engine", src), vec![]);
    }
}
