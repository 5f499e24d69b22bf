//! Layer-1 source lints: project invariants enforced over the token
//! stream of every workspace `.rs` file.
//!
//! Every finding is a structured [`LintViolation`] witness — file,
//! line, rule, source excerpt — in the same spirit as `xct-verify`'s
//! `Violation`: the analyzer never answers with a bare boolean.
//!
//! Every rule that confines a construct is a row of one table,
//! [`ROWS`]: token patterns, the files the row checks, the files where
//! the patterns may appear, and whether test code counts. Comments
//! never count. The rules that need more than a pattern keep their own
//! code: `unsafe-boundary` with its `safety-comment`,
//! `crate-root-header`, and `allow-justification` for the opt-outs.
//!
//! Opt-outs are explicit and audited: a `// xct-allow(rule-name):
//! justification` comment on the offending line or the line directly
//! above silences exactly that rule for exactly that line, and an
//! allow with a missing/empty justification or an unknown rule name is
//! itself a violation ([`Rule::AllowJustification`]).

use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashSet;
use std::fmt;

/// The lint rules. Kebab-case names are the stable identifiers used in
/// `xct-allow(...)` opt-outs, CLI output, and DESIGN.md §3i.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A row of [`ROWS`].
    Row(&'static Row),
    /// `unsafe` outside the sanctioned modules ([`SANCTIONED_UNSAFE`]).
    UnsafeBoundary,
    /// Sanctioned `unsafe` without a `SAFETY:` / `# Safety` comment.
    SafetyComment,
    /// Crate root missing its `forbid(unsafe_code)` /
    /// `deny(unsafe_op_in_unsafe_fn)` header.
    CrateRootHeader,
    /// Malformed `xct-allow` opt-out (unknown rule or no justification).
    AllowJustification,
}

impl Rule {
    /// Stable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Row(row) => row.name,
            Rule::UnsafeBoundary => "unsafe-boundary",
            Rule::SafetyComment => "safety-comment",
            Rule::CrateRootHeader => "crate-root-header",
            Rule::AllowJustification => "allow-justification",
        }
    }

    /// Parses a kebab-case rule name (for `xct-allow(...)`).
    /// `allow-justification` is not itself opt-out-able: an allow that
    /// excuses broken allows would be unauditable.
    pub fn parse(name: &str) -> Option<Rule> {
        let bespoke = [
            Rule::UnsafeBoundary,
            Rule::SafetyComment,
            Rule::CrateRootHeader,
        ];
        ROWS.iter()
            .map(Rule::Row)
            .chain(bespoke)
            .find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One confinement rule: code matching one of `patterns` may appear
/// only in the files under `except`. The row checks the files under
/// `within` (every file when empty), in the code its `scope` names.
///
/// A pattern is words separated by single spaces, each matching one
/// token:
/// * `…` — any run of tokens short of a `;`;
/// * `{}` — a `{ … }` group built as a value, not matched as a pattern
///   (not followed by `=`, `=>`, `|` or `if`, nor closing a
///   `matches!(…)`);
/// * a word of punctuation — that punctuation, one token per character
///   (`::`, `=>`);
/// * a word starting with a digit or `"` — a literal with that text;
/// * any other word — an identifier with that text.
///
/// Text matches one of its `|`-separated alternatives, each exact or
/// with a `*` standing for any prefix or suffix (`*` alone: any text).
/// A pattern also fires inside a string literal, on the literal's text
/// lexed as code, and a word that matches a literal also matches a word
/// of a string literal's text (`= … 0x7000` fires on `= "0x7000"`), as
/// a text search would.
#[derive(PartialEq, Eq, Hash)]
pub struct Row {
    /// Stable kebab-case name.
    pub name: &'static str,
    /// Token patterns; any one fires the row.
    pub patterns: &'static [&'static str],
    /// Path prefixes the row checks; empty checks every file.
    pub within: &'static [&'static str],
    /// Path prefixes where the patterns may appear.
    pub except: &'static [&'static str],
    /// Which code counts.
    pub scope: Scope,
    /// What a finding means.
    pub detail: &'static str,
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Which code a [`Row`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// `Lib`-role files, outside `#[cfg(test)]` modules.
    Library,
    /// Every role but `Test`, outside `#[cfg(test)]` modules.
    Shipped,
    /// Every role, inside `// xct-hot` regions and outside
    /// `#[cfg(test)]` modules.
    Hot,
    /// Every token, test code included.
    All,
}

/// The one definition of the wire protocol and the exchange levels.
const PROTOCOL: &str = "crates/comm/src/protocol.rs";

/// This file, which spells every row's patterns out as strings.
const TABLE: &str = "crates/analyze/src/lint.rs";

/// The confinement rules (DESIGN.md §3i has one line per row, naming
/// the decision it guards).
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row {
        name: "no-panic", scope: Scope::Library, within: &[], except: &[],
        patterns: &[". unwrap|expect", "panic|unreachable|todo|unimplemented !"],
        detail: "a panic in library code — return a typed error",
    },
    Row {
        name: "wall-clock", scope: Scope::Library, within: &[],
        except: &["crates/telemetry/src/clock.rs"],
        patterns: &["Instant :: now", "SystemTime :: *"],
        detail: "a wall clock read outside telemetry's Clock impl — take a `&dyn Clock`",
    },
    Row {
        name: "machine-width", scope: Scope::Library, within: &[],
        except: &["crates/exec/src/"],
        patterns: &["Executor|ExecContext :: parallel", "available_parallelism"],
        detail: "the machine's core count read below the process edge — take the caller's `Executor`",
    },
    Row {
        name: "hot-alloc", scope: Scope::Hot, within: &[], except: &[],
        patterns: &[
            ". collect|to_vec|to_owned|to_string",
            "format|vec !",
            "Vec|VecDeque|String|Box|HashMap|HashSet|BTreeMap :: new|with_capacity|from",
            "Vec|VecDeque|String|Box|HashMap|HashSet|BTreeMap :: < … > :: new|with_capacity|from",
        ],
        detail: "an allocation inside an `xct-hot` region — steady state allocates nothing",
    },
    Row {
        name: "wire-protocol", scope: Scope::All, within: &["crates/", "src/"], except: &[PROTOCOL],
        patterns: &[
            "<< 44*",
            "const|static *SHIFT* : u32 = 44",
            "const|static * : … = … 0x7000|0x7100|0x9000",
            "=> 0x7000|0x7100|0x9000",
            "*tag : 0x7000|0x7100|0x9000",
            "( 0x7000|0x7100|0x9000 , \"*",
        ],
        detail: "the slice-salt shift or a collective tag defined outside xct-comm's protocol module",
    },
    Row {
        name: "exchange-vocabulary", scope: Scope::All, within: &["crates/", "src/", "tests/"],
        except: &[PROTOCOL],
        patterns: &[
            "0x1100|0x1200|0x1300|0x1400|0x1500|0x1600|0x1700",
            "\"scatter-global\"|\"scatter-node\"|\"scatter-socket\"",
            "ExchangeLevel :: * => \"*",
        ],
        detail: "an exchange level's tag or name outside xct-comm's protocol module",
    },
    Row {
        name: "bulk-conversion", scope: Scope::All, within: &["crates/comm/src/compiled.rs"],
        except: &[],
        patterns: &[
            "S :: from_f64*|from_f32*|read_from*",
            "*Held :: from_f64*",
            ". write_to (",
            "*accumulate_payload*|*assign_payload*",
        ],
        detail: "the exchange converts value by value — move whole runs through `StorageScalar`",
    },
    Row {
        name: "storage-codec", scope: Scope::All, within: &["crates/comm/src/"], except: &[],
        patterns: &["*to_bits ( ) . to_le_bytes*", "*from_bits ( u16 :: from_le_bytes*"],
        detail: "the F16 byte layout spelled out in the exchange — `StorageScalar` is the one codec",
    },
    Row {
        name: "one-fan-out", scope: Scope::All, within: &["crates/", "src/"],
        except: &[
            "crates/exec/src/executor.rs",
            "crates/comm/src/runtime.rs",
            "crates/io/src/stream.rs",
            "src/cli.rs",
        ],
        patterns: &["*thread :: scope*|spawn*|Builder*"],
        detail: "a thread started outside the executor, the rank runtime, the slab prefetcher and the CLI",
    },
    Row {
        name: "solve-dispatch", scope: Scope::Shipped, within: &["crates/core/src/", "src/"],
        except: &["crates/core/src/distributed.rs"],
        patterns: &["*cgls_in|*sirt_in ("],
        detail: "a solver called outside `DistributedSetup::run`",
    },
    Row {
        name: "exchange-program", scope: Scope::Shipped, within: &["crates/", "src/"],
        except: &[PROTOCOL, "crates/verify/src/corpus.rs"],
        patterns: &["Post|Drain {}"],
        detail: "an exchange op built outside `protocol::apply` / `protocol::solve`",
    },
    Row {
        name: "retired-name", scope: Scope::All, within: &[], except: &[],
        patterns: &[
            // A second plan flavour or a positional level namer.
            "compile_direct|verify_all_direct|reduce_level_name|scatter_names",
            // The per-apply maxima collective.
            "*FORWARD_MAXIMA*|*TRANSPOSE_MAXIMUM*",
            "fn normalization",
            // A second routing prover.
            "verify_direct|verify_reduce_step|UnheldRow|Misrouted|from_sends",
            // A split exchange executor or a non-sum collective.
            "reduce_local|global_begin|global_finish|scatter_begin|scatter_finish|scatter_local",
            "NotPosted|GlobalInFlight|ScatterInFlight|ReduceOp|allreduce_max",
            // A scatter derived apart from its forward level.
            "compile_scatter_global|compile_scatter_level|compile_global|restrict_idx",
            "scatter_global_level|scatter_local_levels|CommLevel",
            // A second storage codec.
            "HeldScalar|AdaptiveNormalizer|Normalized|held_halves|decode_scalars",
            "trait Wire",
            // A second solve path.
            "*tv_reconstruct_in*|*TvConfig*|*reconstruct_volume_in*",
            "*Algorithm :: Tv*",
            // The schedule iterator `protocol::apply` replaced.
            "exchange_schedule",
        ],
        detail: "a retired name is back",
    },
];

/// One lint finding, with enough witness data to act on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human-readable explanation of what was matched and why it is
    /// disallowed here.
    pub detail: String,
}

impl LintViolation {
    /// A finding of `rule` on 1-based `line` of `file`, whose text is `lines`.
    fn at(file: &str, lines: &[&str], line: usize, rule: Rule, detail: String) -> Self {
        let excerpt = lines.get(line.saturating_sub(1)).map_or("", |l| l.trim());
        LintViolation {
            file: file.to_owned(),
            line,
            rule,
            excerpt: excerpt.to_owned(),
            detail,
        }
    }
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} | {}",
            self.file, self.line, self.rule, self.detail, self.excerpt
        )
    }
}

/// How a file participates in the build — decides which rows check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code: a crate's `src/`, outside `src/bin/` and `main.rs`.
    Lib,
    /// Integration tests (`tests/`).
    Test,
    /// Binaries, examples, benchmarks, build scripts and the offline
    /// dependency shims (which mirror external crates' APIs).
    Other,
}

/// The only modules allowed to contain `unsafe`, workspace-relative.
/// This list is the single source of truth referenced from DESIGN.md
/// §3h/§3i; widening it is a reviewed change to this file.
pub const SANCTIONED_UNSAFE: &[&str] = &[
    // The SIMD boundary (DESIGN.md §3h): the call into the
    // runtime-detected AVX2/FMA/F16C kernel, its vector loads and
    // stores through array references, and the round walk's unchecked
    // slot reads under the stage bound asserted once per stage, behind
    // a scalar-identical contract. Compiled on x86-64 only, where its
    // crate root lifts the forbid.
    "crates/spmm/src/simd.rs",
    // The bulk half↔single conversions (DESIGN.md §3h): `vcvtph2ps` /
    // `vcvtps2ph` behind runtime F16C detection, eight values per
    // unaligned load/store through `&[_; 8]` references; the software
    // `F16` conversions are its fallback and its exhaustive oracle.
    // x86-64 only, like the kernel.
    "crates/fp16/src/convert.rs",
    // The counting global allocator behind the allocation-free guards
    // (tests/alloc_free.rs, perf_suite); a GlobalAlloc impl is unsafe
    // by signature.
    "shims/count-alloc/src/lib.rs",
];

/// Is `rel_path` a crate root that must carry the unsafe headers?
pub fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.ends_with("/src/lib.rs")
            && (rel_path.starts_with("crates/") || rel_path.starts_with("shims/")))
}

/// Lints one file. Findings are appended to `out`.
pub fn check_file(rel_path: &str, source: &str, role: Role, out: &mut Vec<LintViolation>) {
    // Comments match no rule: they leave the token stream here, each
    // with the position it held, for the markers that open regions. The
    // table's own pattern strings leave it too.
    let mut code = Vec::new();
    let mut comments = Vec::new();
    for tok in lex(source) {
        match tok.comment() {
            Some(_) => comments.push((code.len(), tok)),
            None if rel_path == TABLE && string_text(&tok).is_some_and(|t| is_row_pattern(&t)) => {}
            None => code.push(tok),
        }
    }
    let lines: Vec<&str> = source.lines().collect();
    let hot_markers = comments.iter().filter(|(_, t)| {
        t.comment()
            .is_some_and(|c| marker_text(c).starts_with("xct-hot"))
    });
    let ctx = FileCtx {
        rel_path,
        lines: &lines,
        allows: collect_allows(rel_path, &comments, &lines, out),
        test_region: attr_regions(&code, is_cfg_test_attr),
        hot_region: TokenRegions(
            hot_markers
                .filter_map(|&(at, _)| block_after(&code, at))
                .collect(),
        ),
        impl_justified: justified_unsafe_impl_regions(&code, &lines),
    };

    if is_crate_root(rel_path) {
        check_crate_root_header(&code, &ctx, out);
    }
    for row in ROWS {
        check_row(row, &code, role, &ctx, out);
    }

    let unsafe_sanctioned = SANCTIONED_UNSAFE.contains(&rel_path);
    for (i, tok) in code.iter().enumerate() {
        if tok.ident() != Some("unsafe") {
            continue;
        }
        if !unsafe_sanctioned {
            ctx.emit(
                out,
                tok.line,
                Rule::UnsafeBoundary,
                format!(
                    "`unsafe` outside the sanctioned modules ({})",
                    SANCTIONED_UNSAFE.join(", ")
                ),
            );
        } else if !ctx.impl_justified.contains(i) && !safety_comment_above(&lines, tok.line) {
            ctx.emit(
                out,
                tok.line,
                Rule::SafetyComment,
                "sanctioned `unsafe` without a `SAFETY:` justification".into(),
            );
        }
    }
}

/// Emits `row` once on every line where one of its patterns matches,
/// if the row checks this file in this role.
fn check_row(
    row: &'static Row,
    code: &[Tok],
    role: Role,
    ctx: &FileCtx<'_>,
    out: &mut Vec<LintViolation>,
) {
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| ctx.rel_path.starts_with(p));
    let role_counts = match row.scope {
        Scope::Library => role == Role::Lib,
        Scope::Shipped => role != Role::Test,
        Scope::Hot | Scope::All => true,
    };
    if !role_counts || under(row.except) || !(row.within.is_empty() || under(row.within)) {
        return;
    }
    let counts = |i| match row.scope {
        Scope::All => true,
        Scope::Hot => ctx.hot_region.contains(i) && !ctx.test_region.contains(i),
        Scope::Library | Scope::Shipped => !ctx.test_region.contains(i),
    };
    let patterns: Vec<Vec<&str>> = row.patterns.iter().map(|p| words(p)).collect();
    let mut flagged_line = 0;
    for (i, tok) in code.iter().enumerate() {
        if tok.line == flagged_line || !counts(i) {
            continue;
        }
        let inner = string_text(tok).map_or_else(Vec::new, |text| lex(&text));
        let hit = patterns.iter().any(|words| {
            matches_at(code, i, words) || (0..inner.len()).any(|j| matches_at(&inner, j, words))
        });
        if hit {
            flagged_line = tok.line;
            ctx.emit(out, tok.line, Rule::Row(row), row.detail.into());
        }
    }
}

/// A pattern's words, each punctuation word split into its characters.
fn words(pattern: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for word in pattern.split(' ') {
        if matches!(word, "…" | "{}")
            || word.starts_with(|c: char| c == '_' || c == '*' || c == '"' || c.is_alphanumeric())
        {
            out.push(word);
        } else {
            out.extend((0..word.len()).map(|k| &word[k..k + 1]));
        }
    }
    out
}

/// The text between a string literal's quotes, escaped quotes
/// unescaped; `None` for other tokens.
fn string_text(tok: &Tok) -> Option<String> {
    let TokKind::Literal(text) = &tok.kind else {
        return None;
    };
    let open = text.find('"').filter(|_| !text.starts_with('\''))?;
    let close = text.rfind('"').filter(|&c| c > open)?;
    Some(text[open + 1..close].replace("\\\"", "\""))
}

/// Is `text` one of the patterns of [`ROWS`]?
fn is_row_pattern(text: &str) -> bool {
    ROWS.iter().any(|row| row.patterns.contains(&text))
}

fn is_ident_word(word: &str) -> bool {
    word.starts_with(|c: char| c == '_' || c == '*' || c.is_alphabetic())
}

/// Do `words` match the tokens from `code[i]` on?
fn matches_at(code: &[Tok], i: usize, words: &[&str]) -> bool {
    let Some((&word, rest)) = words.split_first() else {
        return true;
    };
    let Some(tok) = code.get(i) else {
        return false;
    };
    match (word, &tok.kind) {
        ("…", _) => {
            let stop = code[i..].iter().position(|t| t.is_punct(';'));
            (i..=stop.map_or(code.len(), |k| i + k)).any(|j| matches_at(code, j, rest))
        }
        ("{}", TokKind::Punct('{')) => match block_after(code, i) {
            Some((_, end)) if !is_pattern(code, end) => matches_at(code, end, rest),
            _ => false,
        },
        (_, TokKind::Ident(text)) if is_ident_word(word) => {
            glob(word, text) && matches_at(code, i + 1, rest)
        }
        (_, TokKind::Literal(text)) if !is_ident_word(word) => {
            let in_string = || {
                !word.starts_with('"')
                    && string_text(tok).is_some_and(|s| {
                        s.split(|c: char| c != '_' && !c.is_alphanumeric())
                            .any(|w| glob(word, w))
                    })
            };
            (glob(word, text) || in_string()) && matches_at(code, i + 1, rest)
        }
        (_, TokKind::Punct(c)) if !is_ident_word(word) && word.starts_with(*c) => {
            matches_at(code, i + 1, rest)
        }
        _ => false,
    }
}

/// Does `text` match one of the `|`-separated alternatives of `pattern`?
fn glob(pattern: &str, text: &str) -> bool {
    pattern.split('|').any(|alt| {
        let (head, core) = alt.strip_prefix('*').map_or((false, alt), |c| (true, c));
        let (tail, core) = core.strip_suffix('*').map_or((false, core), |c| (true, c));
        match (head, tail) {
            (true, true) => text.contains(core),
            (true, false) => text.ends_with(core),
            (false, true) => text.starts_with(core),
            (false, false) => text == core,
        }
    })
}

/// Is the `{ … }` group that closed before `code[end]` matched as a
/// pattern — an arm, a `let`, an alternative, a guard or a
/// `matches!(…)` — rather than built? Closing brackets of the patterns
/// around it are skipped.
fn is_pattern(code: &[Tok], mut end: usize) -> bool {
    while let Some(t) = code.get(end).filter(|t| t.is_punct(')') || t.is_punct(']')) {
        if t.is_punct(')') && opens_matches(code, end) {
            return true;
        }
        end += 1;
    }
    let next = |k: usize| code.get(end + k);
    match next(0) {
        Some(t) if t.is_punct('=') => !next(1).is_some_and(|n| n.is_punct('=')),
        Some(t) if t.is_punct('|') => !next(1).is_some_and(|n| n.is_punct('|')),
        Some(t) => t.ident() == Some("if"),
        None => false,
    }
}

/// Is the `(` that `code[close]` closes the one of a `matches!(`?
fn opens_matches(code: &[Tok], close: usize) -> bool {
    let mut depth = 0usize;
    for j in (0..close).rev() {
        if code[j].is_punct(')') {
            depth += 1;
        } else if code[j].is_punct('(') {
            if depth == 0 {
                return j >= 2
                    && code[j - 1].is_punct('!')
                    && code[j - 2].ident() == Some("matches");
            }
            depth -= 1;
        }
    }
    false
}

/// Per-file context shared by the rule checks.
struct FileCtx<'a> {
    rel_path: &'a str,
    lines: &'a [&'a str],
    /// `(line, rule)` pairs with a valid opt-out comment on `line`.
    allows: HashSet<(usize, Rule)>,
    test_region: TokenRegions,
    hot_region: TokenRegions,
    impl_justified: TokenRegions,
}

impl FileCtx<'_> {
    /// Records a violation unless an allow comment on the same line or
    /// the line above excuses it.
    fn emit(&self, out: &mut Vec<LintViolation>, line: usize, rule: Rule, detail: String) {
        let allowed = |l| self.allows.contains(&(l, rule));
        if !allowed(line) && !allowed(line.saturating_sub(1)) {
            out.push(LintViolation::at(
                self.rel_path,
                self.lines,
                line,
                rule,
                detail,
            ));
        }
    }
}

/// Sorted, disjoint half-open token-index ranges.
#[derive(Debug, Default)]
struct TokenRegions(Vec<(usize, usize)>);

impl TokenRegions {
    fn contains(&self, i: usize) -> bool {
        self.0.iter().any(|&(a, b)| a <= i && i < b)
    }
}

/// Token-index range of the `{ … }` block starting at the first `{` at
/// or after `from`. Returns `(open_idx, close_idx_exclusive)`.
fn block_after(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let open = (from..toks.len()).find(|&j| toks[j].is_punct('{'))?;
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((open, j + 1));
            }
        }
    }
    Some((open, toks.len()))
}

/// Is the attribute token run (between `[` and `]`) a `cfg(test)`-like
/// gate? `not(test)` gates are *compiled-in* code and stay linted.
fn is_cfg_test_attr(attr: &[&str]) -> bool {
    attr.contains(&"cfg") && attr.contains(&"test") && !attr.contains(&"not")
}

/// Regions `{ … }` introduced by an attribute satisfying `pred` over
/// the attribute's identifier list.
fn attr_regions(toks: &[Tok], pred: fn(&[&str]) -> bool) -> TokenRegions {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect idents to the matching `]`.
            let mut idents = Vec::new();
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if let Some(id) = t.ident() {
                    idents.push(id);
                }
                j += 1;
            }
            if pred(&idents) {
                if let Some(r) = block_after(toks, j) {
                    regions.push(r);
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    TokenRegions(regions)
}

/// The payload of a marker comment: text after the leading `//`, `*`,
/// `!` and whitespace. Markers must *start* the comment — prose that
/// merely mentions `xct-hot` or `xct-allow` (docs, this file) is inert.
fn marker_text(comment: &str) -> &str {
    comment.trim_start_matches(['/', '*', '!', ' ', '\t'])
}

/// Token ranges of `unsafe impl … { … }` blocks whose `unsafe` carries
/// a SAFETY justification: `unsafe fn` signatures *inside* such an impl
/// (e.g. `GlobalAlloc::alloc`) inherit the impl-level justification.
fn justified_unsafe_impl_regions(code: &[Tok], lines: &[&str]) -> TokenRegions {
    let mut regions = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.ident() == Some("unsafe")
            && code.get(i + 1).and_then(Tok::ident) == Some("impl")
            && safety_comment_above(lines, t.line)
        {
            if let Some(r) = block_after(code, i) {
                regions.push(r);
            }
        }
    }
    TokenRegions(regions)
}

/// Does the contiguous run of comment/attribute lines directly above
/// `line` (or `line` itself) contain a SAFETY justification?
fn safety_comment_above(lines: &[&str], line: usize) -> bool {
    let has_marker = |l: &str| l.contains("SAFETY") || l.contains("# Safety");
    if lines.get(line - 1).is_some_and(|l| has_marker(l)) {
        return true;
    }
    let mut idx = line.saturating_sub(1); // 0-based index of `line`
    while idx > 0 {
        idx -= 1;
        let t = lines[idx].trim_start();
        let is_annotation = t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![");
        if !is_annotation {
            return false;
        }
        if has_marker(t) {
            return true;
        }
    }
    false
}

/// Parses every `xct-allow` comment; valid ones land in the returned
/// set keyed by `(line, rule)`, malformed ones are violations.
fn collect_allows(
    rel_path: &str,
    comments: &[(usize, Tok)],
    lines: &[&str],
    out: &mut Vec<LintViolation>,
) -> HashSet<(usize, Rule)> {
    let mut allows = HashSet::new();
    for (_, t) in comments {
        let Some(rest) = t
            .comment()
            .and_then(|c| marker_text(c).strip_prefix("xct-allow"))
        else {
            continue;
        };
        let detail = match parse_allow(rest) {
            Some((rule, reason)) if !reason.trim().is_empty() => {
                allows.insert((t.line, rule));
                continue;
            }
            Some((rule, _)) => format!("`xct-allow({rule})` has an empty justification"),
            None => "malformed `xct-allow` — expected `xct-allow(rule-name): justification`".into(),
        };
        let rule = Rule::AllowJustification;
        out.push(LintViolation::at(rel_path, lines, t.line, rule, detail));
    }
    allows
}

/// Parses `"(rule): reason"`; returns the rule and the reason text.
fn parse_allow(rest: &str) -> Option<(Rule, &str)> {
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = Rule::parse(rest[..close].trim())?;
    let after = rest[close + 1..].strip_prefix(':')?;
    Some((rule, after))
}

/// Crate roots must keep `forbid(unsafe_code)` (or, for the SIMD crate,
/// `deny(unsafe_op_in_unsafe_fn)` alongside a forbid lifted on the one
/// arch whose intrinsics need it) in their inner attributes. A forbid
/// that hangs on a cargo feature is rejected: a build option must not
/// decide whether unsafe code is allowed.
fn check_crate_root_header(code: &[Tok], ctx: &FileCtx<'_>, out: &mut Vec<LintViolation>) {
    let idents: Vec<&str> = code.iter().filter_map(Tok::ident).collect();
    let has = |a: &str, b: &str| idents.contains(&a) && idents.contains(&b);
    let forbids = has("forbid", "unsafe_code");
    let denies = has("deny", "unsafe_op_in_unsafe_fn");
    // The idents between the forbid and the `#` opening its attribute
    // are its `cfg_attr` predicate, if it has one.
    let feature_gated = code
        .iter()
        .position(|t| t.ident() == Some("forbid"))
        .and_then(|at| {
            code[..at]
                .iter()
                .rev()
                .take_while(|t| !t.is_punct('#'))
                .find(|t| t.ident() == Some("feature"))
        });
    if let Some(gate) = feature_gated {
        ctx.emit(
            out,
            gate.line,
            Rule::CrateRootHeader,
            "`forbid(unsafe_code)` is gated on a cargo feature; gate it on \
             `target_arch` or keep it unconditional"
                .into(),
        );
    } else if !forbids && !denies {
        ctx.emit(
            out,
            1,
            Rule::CrateRootHeader,
            "crate root lacks `#![forbid(unsafe_code)]` (or the arch-gated \
             `#![deny(unsafe_op_in_unsafe_fn)]` form)"
                .into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::classify;

    fn lint(path: &str, src: &str, role: Role) -> Vec<LintViolation> {
        let mut out = Vec::new();
        check_file(path, src, role, &mut out);
        out
    }

    fn rules(v: &[LintViolation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule.name()).collect()
    }

    #[test]
    fn unsafe_outside_sanctioned_module_is_flagged_with_line() {
        let v = lint(
            "crates/foo/src/x.rs",
            "pub fn f() {\n    unsafe { g() }\n}\n",
            Role::Lib,
        );
        assert_eq!(rules(&v), vec!["unsafe-boundary"]);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].excerpt, "unsafe { g() }");
    }

    #[test]
    fn unsafe_is_flagged_even_in_tests() {
        let v = lint(
            "crates/foo/tests/t.rs",
            "#[test]\nfn t() { unsafe { g() } }\n",
            Role::Test,
        );
        assert_eq!(rules(&v), vec!["unsafe-boundary"]);
    }

    #[test]
    fn sanctioned_unsafe_needs_safety_comment() {
        let path = "crates/spmm/src/simd.rs";
        let bad = lint(path, "pub fn f() { unsafe { g() } }\n", Role::Lib);
        assert_eq!(rules(&bad), vec!["safety-comment"]);
        let good = lint(
            path,
            "pub fn f() {\n    // SAFETY: g upholds its contract here\n    unsafe { g() }\n}\n",
            Role::Lib,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn doc_safety_section_through_attributes_is_accepted() {
        let src = "/// # Safety\n/// Caller checked avx2.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn k() {}\n";
        let v = lint("crates/spmm/src/simd.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_fns_inside_justified_unsafe_impl_inherit() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n// SAFETY: counting wrapper delegates to System.\nunsafe impl GlobalAlloc for A {\n    unsafe fn alloc(&self, l: Layout) -> *mut u8 { todo() }\n}\n";
        let v = lint("shims/count-alloc/src/lib.rs", src, Role::Other);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_lib_is_flagged_but_tests_and_bins_are_exempt() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", src, Role::Lib)),
            vec!["no-panic"]
        );
        assert!(lint("crates/foo/src/bin/b.rs", src, Role::Other).is_empty());
        assert!(lint("shims/p/src/util.rs", src, Role::Other).is_empty());
    }

    #[test]
    fn cfg_test_region_in_lib_file_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f(); Some(1).unwrap(); }\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_not_test_region_stays_linted() {
        let src = "#[cfg(not(test))]\nmod real {\n    pub fn f() { panic!(\"x\") }\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec!["no-panic"]);
    }

    #[test]
    fn panic_family_macros_are_flagged_only_with_bang() {
        let src = "#[should_panic]\nfn a() {}\npub fn b() { unreachable!() }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec!["no-panic"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn allow_with_reason_silences_same_and_next_line() {
        let above = "pub fn f(x: Option<u8>) -> u8 {\n    // xct-allow(no-panic): invariant — caller checked is_some\n    x.unwrap()\n}\n";
        assert!(lint("crates/foo/src/l.rs", above, Role::Lib).is_empty());
        let trailing = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // xct-allow(no-panic): invariant — caller checked\n}\n";
        assert!(lint("crates/foo/src/l.rs", trailing, Role::Lib).is_empty());
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_a_violation() {
        let empty = "// xct-allow(no-panic):\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint("crates/foo/src/l.rs", empty, Role::Lib);
        assert_eq!(rules(&v), vec!["allow-justification", "no-panic"]);
        let unknown = "// xct-allow(nonsense): because\npub fn f() {}\n";
        let v = lint("crates/foo/src/l.rs", unknown, Role::Lib);
        assert_eq!(rules(&v), vec!["allow-justification"]);
    }

    #[test]
    fn wall_clock_reads_are_flagged_outside_clock_impl() {
        let src = "pub fn f() -> Instant { Instant::now() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", src, Role::Lib)),
            vec!["wall-clock"]
        );
        assert!(lint("crates/telemetry/src/clock.rs", src, Role::Lib).is_empty());
        // The bare import/type position is fine; only ::now is a read.
        let ty = "pub struct S { t: Instant }\n";
        assert!(lint("crates/foo/src/l.rs", ty, Role::Lib).is_empty());
        let sys = "pub fn f() -> SystemTime { SystemTime::now() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", sys, Role::Lib)),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn machine_width_reads_are_flagged_outside_the_executor_crate() {
        let src = "pub fn f() -> Executor { Executor::parallel() }\n";
        let lib = "crates/foo/src/l.rs";
        assert_eq!(rules(&lint(lib, src, Role::Lib)), vec!["machine-width"]);
        assert!(lint("crates/exec/src/executor.rs", src, Role::Lib).is_empty());
        assert!(lint("crates/foo/src/bin/b.rs", src, Role::Other).is_empty());
        let ctx = "pub fn f() { g(&mut ExecContext::parallel()) }\n";
        assert_eq!(rules(&lint(lib, ctx, Role::Lib)), vec!["machine-width"]);
        let std =
            "pub fn f() -> usize { std::thread::available_parallelism().map_or(1, usize::from) }\n";
        assert_eq!(rules(&lint(lib, std, Role::Lib)), vec!["machine-width"]);
        // Taking the caller's executor, or naming another constructor, is
        // no read; neither is a test module.
        let handed = "pub fn f(e: &Executor) -> Executor { *e }\npub fn g() -> Executor { Executor::threads(2) }\n";
        assert!(lint(lib, handed, Role::Lib).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { Executor::parallel(); }\n}\n";
        assert!(lint(lib, test, Role::Lib).is_empty());
    }

    #[test]
    fn hot_region_rejects_allocations_and_ends_at_brace() {
        let src = "pub fn f(xs: &[u32]) -> u32 {\n    // xct-hot\n    {\n        let v: Vec<u32> = xs.iter().copied().collect();\n        v[0]\n    }\n}\npub fn cold(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec!["hot-alloc"]);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn hot_region_macro_and_ctor_forms() {
        let src = "// xct-hot\npub fn f() {\n    let a = vec![1];\n    let b = format!(\"x\");\n    let c = Vec::<u8>::new();\n    let d = Box::new(1);\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|x| x.rule.name() == "hot-alloc"));
    }

    #[test]
    fn hot_alloc_can_be_allowed_with_reason() {
        let src = "// xct-hot\npub fn f(ok: bool) -> Result<(), String> {\n    if ok { return Ok(()); }\n    // xct-allow(hot-alloc): cold error path, never taken steady-state\n    Err(format!(\"bad\"))\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crate_root_header_rule() {
        let v = lint("crates/foo/src/lib.rs", "pub fn f() {}\n", Role::Lib);
        assert_eq!(rules(&v), vec!["crate-root-header"]);
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint("crates/foo/src/lib.rs", ok, Role::Lib).is_empty());
        let gated = "#![cfg_attr(not(target_arch = \"x86_64\"), forbid(unsafe_code))]\n#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
        assert!(lint("crates/spmm/src/lib.rs", gated, Role::Lib).is_empty());
        // A build option must not decide whether unsafe is allowed.
        let by_feature = gated.replace("target_arch = \"x86_64\"", "feature = \"simd\"");
        let v = lint("crates/spmm/src/lib.rs", &by_feature, Role::Lib);
        assert_eq!(rules(&v), vec!["crate-root-header"]);
        // Non-roots are not checked.
        assert!(lint("crates/foo/src/util.rs", "pub fn f() {}\n", Role::Lib).is_empty());
    }

    #[test]
    fn vec_new_is_rejected_in_hot_but_fine_outside() {
        let src = "pub fn f() -> Vec<u8> { Vec::new() }\n";
        assert!(lint("crates/foo/src/l.rs", src, Role::Lib).is_empty());
    }

    #[test]
    fn prose_mentions_of_markers_are_inert() {
        // Doc text that *talks about* the markers must not open a hot
        // region or count as an allow attempt.
        let src = "/// Use an `// xct-hot` marker, or `// xct-allow(rule-name): reason`.\npub fn f() { let v = vec![1]; drop(v); }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn every_row_has_a_unique_name_and_its_own_allow() {
        for (k, row) in ROWS.iter().enumerate() {
            assert!(ROWS[..k].iter().all(|r| r.name != row.name), "{row:?}");
            assert_eq!(Rule::parse(row.name), Some(Rule::Row(row)));
        }
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    // xct-allow(wall-clock): wrong row\n    x.unwrap()\n}\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", src, Role::Lib)),
            vec!["no-panic"]
        );
    }

    #[test]
    fn patterns_match_punctuation_gaps_and_literal_text() {
        let lib = "crates/foo/src/l.rs";
        for hit in [
            "pub fn f(x: u64) -> u64 { x << 44 }\n", // xct-allow(wire-protocol): a case the row must flag
            "pub const SALT_SHIFT: u32 = 44;\n", // xct-allow(wire-protocol): a case the row must flag
            "pub const T: (u16, u8) = (3, 0x7100 as u8);\n", // xct-allow(wire-protocol): a case the row must flag
            "pub fn f(c: u8) -> u16 { match c { 0 => 0x9000, _ => 1 } }\n", // xct-allow(wire-protocol): a case the row must flag
            "pub const ROW: (u32, &str) = (0x7000, \"inner\");\n", // xct-allow(wire-protocol): a case the row must flag
        ] {
            assert_eq!(
                rules(&lint(lib, hit, Role::Lib)),
                vec!["wire-protocol"],
                "{hit}"
            );
        }
        // Uses are not definitions; comments and the owner never count.
        for clean in [
            "pub fn f() { claims(4, 0x7000) }\n",
            "pub const SHIFT: u32 = 45;\n",
            "// x << 44\npub fn f() {}\n",
        ] {
            assert!(lint(lib, clean, Role::Lib).is_empty(), "{clean}");
        }
        // xct-allow(wire-protocol): a case the row must flag
        assert!(lint(PROTOCOL, "pub fn f(x: u64) -> u64 { x << 44 }\n", Role::Lib).is_empty());
        // xct-allow(exchange-vocabulary): a case the row must flag
        let name = "pub fn f() -> &'static str { \"scatter-node\" }\n";
        assert_eq!(
            rules(&lint("tests/t.rs", name, Role::Test)),
            vec!["exchange-vocabulary"]
        );
    }

    #[test]
    fn a_built_op_is_flagged_and_a_matched_one_is_not() {
        let lib = "crates/foo/src/l.rs";
        let built = "pub fn f(o: &mut Vec<Op>) { o.push(Op::Post { level, slice: None }); }\n";
        assert_eq!(
            rules(&lint(lib, built, Role::Lib)),
            vec!["exchange-program"]
        );
        for folded in [
            "pub fn f(op: Op) { match op { Op::Post { level, .. } | Op::Drain { level, .. } => g(level), _ => {} } }\n",
            "pub fn f(op: Op) { if let Some(Op::Post { level, .. }) = op { g(level) } }\n",
            "pub fn f(op: Op) -> bool { matches!(op, Op::Drain { slice: None, .. }) }\n",
            "pub fn f(op: Op) { match op { Op::Drain { slice, .. } if slice.is_some() => {} _ => {} } }\n",
        ] {
            assert!(lint(lib, folded, Role::Lib).is_empty(), "{folded}");
        }
        // Integration tests and test modules may build ops.
        assert!(lint("crates/foo/tests/t.rs", built, Role::Test).is_empty());
    }

    #[test]
    fn a_single_name_pattern_also_fires_inside_a_literal() {
        let lib = "crates/foo/src/l.rs";
        let text = "pub fn f() -> usize { count(\"std::thread::available_parallelism\") }\n";
        assert_eq!(rules(&lint(lib, text, Role::Lib)), vec!["machine-width"]);
        let name = "pub fn f() -> &'static str { \"calls exchange_schedule here\" }\n";
        assert_eq!(rules(&lint(lib, name, Role::Lib)), vec!["retired-name"]);
        // xct-allow(exchange-vocabulary): a case the row must flag
        let tag = "#[test]\nfn t() { assert_eq!(name(5), \"tag 0x1500\"); }\n";
        assert_eq!(
            rules(&lint("tests/t.rs", tag, Role::Test)),
            vec!["exchange-vocabulary"]
        );
        // xct-allow(wire-protocol): a case the row must flag
        let defined = "pub const T: &str = \"0x7000\";\n";
        assert_eq!(rules(&lint(lib, defined, Role::Lib)), vec!["wire-protocol"]);
    }

    #[test]
    fn a_multi_word_pattern_also_fires_inside_a_string_literal() {
        for (path, text, row) in [
            (
                "crates/foo/src/l.rs",
                "run(\"std::thread::spawn\")",
                "one-fan-out",
            ),
            (
                "crates/comm/src/l.rs",
                "run(\"x.to_bits().to_le_bytes()\")",
                "storage-codec",
            ),
            ("tests/t.rs", "run(\"Algorithm::Tv\")", "retired-name"),
            ("tests/t.rs", "run(\"pub trait Wire {}\")", "retired-name"),
        ] {
            let src = format!("pub fn f() {{ {text}; }}\n");
            assert_eq!(rules(&lint(path, &src, classify(path))), vec![row], "{src}");
        }
    }

    #[test]
    fn the_table_file_is_checked_apart_from_its_pattern_strings() {
        let read =
            "pub fn f() -> usize { std::thread::available_parallelism().map_or(1, usize::from) }\n";
        assert_eq!(rules(&lint(TABLE, read, Role::Lib)), vec!["machine-width"]);
        // xct-allow(retired-name): a case the row must flag
        let retired = "pub fn f() { exchange_schedule(); }\n";
        assert_eq!(
            rules(&lint(TABLE, retired, Role::Lib)),
            vec!["retired-name"]
        );
        // A string that is one of the rows' patterns is the table there,
        // and a use anywhere else.
        let spelled = "pub const P: &str = \"exchange_schedule\";\n";
        assert!(lint(TABLE, spelled, Role::Lib).is_empty());
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", spelled, Role::Lib)),
            vec!["retired-name"]
        );
    }

    #[test]
    fn rows_check_only_the_files_and_code_they_name() {
        // `bulk-conversion` checks the executor alone; `solve-dispatch`
        // exempts test modules but not binaries.
        let per_value = "pub fn f<S: StorageScalar>(x: f64) -> S { S::from_f64(x) }\n";
        let exec = "crates/comm/src/compiled.rs";
        assert_eq!(
            rules(&lint(exec, per_value, Role::Lib)),
            vec!["bulk-conversion"]
        );
        assert!(lint("crates/comm/src/wire.rs", per_value, Role::Lib).is_empty());
        let solve = "fn main() { cgls_in(a, b) }\n";
        assert_eq!(
            rules(&lint("src/main.rs", solve, Role::Other)),
            vec!["solve-dispatch"]
        );
        let tested = "#[cfg(test)]\nmod tests {\n    fn t() { sirt_in(a, b) }\n}\n";
        assert!(lint("crates/core/src/recon.rs", tested, Role::Lib).is_empty());
        // `one-fan-out` counts test modules too.
        // xct-allow(one-fan-out): a case the row must flag
        let thread = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(f); }\n}\n";
        let v = lint("crates/foo/src/l.rs", thread, Role::Lib);
        assert_eq!(rules(&v), vec!["one-fan-out"]);
    }
}
