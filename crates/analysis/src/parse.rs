//! Layer 2 of the analyzer: an item-level parser over the token stream.
//!
//! This is not a full Rust parser — it extracts exactly what the rules
//! and the call graph need, and skips everything else with balanced
//! delimiter matching:
//!
//! * `use` trees, including `as` renames, nested groups, and glob
//!   imports (the alias loopholes the old line scanner could not see),
//! * `fn` definitions with their `impl`/`trait` self type, visibility
//!   and body span, and `const`/`static` items with their initializer,
//! * call and method-call sites inside each body (plus macro
//!   invocations, which is how `panic!` is found), and the names a body
//!   uses as values (`.map(Type::method)`, `apply: helper`),
//! * `#[cfg(test)]` items, which are *excluded*: their tokens are marked
//!   not-included and their functions are not recorded, so tests keep
//!   their license to panic and use host facilities.

use crate::tokens::{Tok, TokKind};

/// One name bound by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBinding {
    /// The name the binding introduces in this file; `"*"` for a glob.
    pub local: String,
    /// The full path the name refers to, as written (first segment may
    /// be `crate`, `self`, `super`, or an external crate name).
    pub target: Vec<String>,
    /// Whether the binding is re-exported (`pub use`).
    pub is_pub: bool,
    /// 1-based source line of the binding.
    pub line: u32,
}

/// What a call site calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// A path call: `helper(..)`, `Type::method(..)`,
    /// `module::helper(..)`. Segments as written.
    Path(Vec<String>),
    /// A method call: `recv.method(..)`. Receiver types are not
    /// inferred; the graph layer resolves these by name, conservatively.
    Method(String),
    /// A macro invocation: `panic!(..)`, `vec![..]`.
    Macro(String),
}

/// One call site, or one use of a name as a value, inside a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// What is called.
    pub callee: Callee,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One function definition (or trait-method declaration), or one
/// `const`/`static` item, whose initializer is its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's (or item's) name.
    pub name: String,
    /// The `impl`/`trait` self type it is defined on, if any.
    pub self_ty: Option<String>,
    /// Whether it is defined in a `trait` or a trait `impl`.
    pub in_trait: bool,
    /// 1-based line of the name.
    pub line: u32,
    /// Whether it is declared `pub` (any `pub(..)` restriction included).
    pub is_pub: bool,
    /// Whether it is a `const`/`static` item rather than a function.
    pub is_const: bool,
    /// Token index range of the body (including braces; for a
    /// `const`/`static`, the whole item); empty for body-less trait
    /// declarations.
    pub body: (usize, usize),
    /// Call sites and value uses found in the body.
    pub calls: Vec<Call>,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileModel {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The crate the file belongs to, as a Rust identifier
    /// (`mosaic_vm`, ...).
    pub krate: String,
    /// The file's token stream.
    pub tokens: Vec<Tok>,
    /// Per-token flag: `false` for tokens inside attributes or inside
    /// `#[cfg(test)]` items — rules must not match those.
    pub included: Vec<bool>,
    /// `use` bindings in the file (test items excluded).
    pub uses: Vec<UseBinding>,
    /// Functions defined in the file (test items excluded).
    pub fns: Vec<FnDef>,
}

/// The crate identifier a repo-relative path belongs to.
pub fn crate_ident(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next().unwrap_or("");
        if dir == "analysis" {
            "mosaic_audit".to_string()
        } else {
            format!("mosaic_{}", dir.replace('-', "_"))
        }
    } else {
        "mosaic".to_string()
    }
}

/// Keywords that look like a call when followed by `(`.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "in"
            | "move"
            | "unsafe"
            | "as"
            | "else"
            | "dyn"
            | "ref"
            | "mut"
            | "let"
            | "fn"
            | "await"
            | "break"
            | "continue"
            | "where"
            | "impl"
    )
}

/// Parses one file's token stream into a [`FileModel`].
pub fn parse_file(path: &str, tokens: Vec<Tok>) -> FileModel {
    let included = vec![true; tokens.len()];
    let mut p = Parser { t: &tokens, i: 0, included, uses: Vec::new(), fns: Vec::new() };
    p.items(false, Scope::default());
    FileModel {
        path: path.to_string(),
        krate: crate_ident(path),
        included: p.included,
        uses: p.uses,
        fns: p.fns,
        tokens,
    }
}

/// The `impl` or `trait` block an item is defined in, if any.
#[derive(Debug, Clone, Copy, Default)]
struct Scope<'a> {
    /// The block's self type (the trait's name for a `trait`).
    self_ty: Option<&'a str>,
    /// Whether the block is a `trait` or a trait `impl`.
    in_trait: bool,
}

struct Parser<'t> {
    t: &'t [Tok],
    i: usize,
    included: Vec<bool>,
    uses: Vec<UseBinding>,
    fns: Vec<FnDef>,
}

impl Parser<'_> {
    fn cur(&self) -> Option<&Tok> {
        self.t.get(self.i)
    }

    fn cur_is_punct(&self, s: &str) -> bool {
        self.cur().is_some_and(|t| t.is_punct(s))
    }

    fn cur_is_ident(&self, s: &str) -> bool {
        self.cur().is_some_and(|t| t.is_ident(s))
    }

    /// Consumes a balanced `open`..`close` group starting at the current
    /// token (which must be `open`); returns the index one past the
    /// closing delimiter.
    fn skip_balanced(&mut self, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        while let Some(tok) = self.cur() {
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    break;
                }
            }
            self.i += 1;
        }
        self.i
    }

    /// Consumes a balanced generic-argument group starting at `<`.
    /// `>` directly after `-` is an arrow (`Fn() -> T` bounds), not a
    /// closing bracket.
    fn skip_angle(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.cur() {
            if tok.is_punct("<") {
                depth += 1;
            } else if tok.is_punct(">") {
                let arrow = self.i > 0 && self.t[self.i - 1].is_punct("-");
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        break;
                    }
                }
            }
            self.i += 1;
        }
    }

    /// Marks `[from, to)` as excluded from rule matching.
    fn exclude(&mut self, from: usize, to: usize) {
        let to = to.min(self.included.len());
        for flag in &mut self.included[from..to] {
            *flag = false;
        }
    }

    /// Consumes one whole item generically: everything up to a `;` at
    /// depth 0 or through the item's first balanced `{ .. }` block.
    fn skip_item(&mut self) {
        while let Some(tok) = self.cur() {
            if tok.is_punct(";") {
                self.i += 1;
                return;
            }
            if tok.is_punct("{") {
                self.skip_balanced("{", "}");
                return;
            }
            if tok.is_punct("(") {
                self.skip_balanced("(", ")");
                continue;
            }
            if tok.is_punct("[") {
                self.skip_balanced("[", "]");
                continue;
            }
            self.i += 1;
        }
    }

    /// Whether the attribute starting at `start` (`#`) is a `cfg(..)`
    /// whose arguments mention `test`.
    fn attr_mentions_cfg_test(&self, start: usize, end: usize) -> bool {
        let toks = &self.t[start..end.min(self.t.len())];
        toks.iter().any(|t| t.is_ident("cfg")) && toks.iter().any(|t| t.is_ident("test"))
    }

    /// The item loop: parses items until end of input (or the closing
    /// `}` of the enclosing block when `stop_at_close`).
    fn items(&mut self, stop_at_close: bool, scope: Scope) {
        let mut pending_test = false;
        let mut is_pub = false;
        while let Some(tok) = self.cur() {
            if tok.is_punct("}") {
                self.i += 1;
                if stop_at_close {
                    return;
                }
                continue;
            }
            if tok.is_punct("#") {
                let start = self.i;
                self.i += 1;
                if self.cur_is_punct("!") {
                    self.i += 1;
                }
                if self.cur_is_punct("[") {
                    let end = self.skip_balanced("[", "]");
                    self.exclude(start, end);
                    if self.attr_mentions_cfg_test(start, end) {
                        pending_test = true;
                    }
                }
                continue;
            }
            if tok.is_punct("{") {
                // A block belonging to an item we did not model (const
                // initializer, macro body, ...): its tokens stay
                // included for ident rules, but nothing inside is an
                // item of this scope.
                self.skip_balanced("{", "}");
                continue;
            }
            if tok.kind != TokKind::Ident {
                self.i += 1;
                continue;
            }
            match tok.text.as_str() {
                "pub" => {
                    self.i += 1;
                    if self.cur_is_punct("(") {
                        self.skip_balanced("(", ")");
                    }
                    is_pub = true;
                    continue;
                }
                "use" => {
                    let start = self.i;
                    self.parse_use(is_pub, pending_test);
                    if pending_test {
                        let end = self.i;
                        self.exclude(start, end);
                    }
                }
                "mod" => {
                    self.i += 1;
                    self.i += 1; // module name
                    if self.cur_is_punct("{") {
                        if pending_test {
                            let start = self.i;
                            self.skip_balanced("{", "}");
                            self.exclude(start, self.i);
                        } else {
                            self.i += 1;
                            self.items(true, Scope::default());
                        }
                    } else if self.cur_is_punct(";") {
                        self.i += 1;
                    }
                }
                "impl" => {
                    if pending_test {
                        let start = self.i;
                        self.skip_item();
                        self.exclude(start, self.i);
                    } else {
                        let (ty, in_trait) = self.parse_impl_header();
                        if self.cur_is_punct("{") {
                            self.i += 1;
                            self.items(true, Scope { self_ty: ty.as_deref(), in_trait });
                        }
                    }
                }
                "trait" => {
                    if pending_test {
                        let start = self.i;
                        self.skip_item();
                        self.exclude(start, self.i);
                    } else {
                        self.i += 1;
                        let name =
                            self.cur().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
                        // Scan to the trait body, skipping bounds.
                        while let Some(t) = self.cur() {
                            if t.is_punct("{") || t.is_punct(";") {
                                break;
                            }
                            if t.is_punct("<") {
                                self.skip_angle();
                            } else {
                                self.i += 1;
                            }
                        }
                        if self.cur_is_punct("{") {
                            self.i += 1;
                            self.items(true, Scope { self_ty: name.as_deref(), in_trait: true });
                        } else if self.cur_is_punct(";") {
                            self.i += 1;
                        }
                    }
                }
                "fn" => {
                    self.parse_fn(scope, is_pub, pending_test);
                }
                "unsafe" | "async" | "extern" | "default" => {
                    // Qualifier before `fn`/`impl`/`trait` (or `extern
                    // crate`): step over it, keeping pending flags.
                    self.i += 1;
                    continue;
                }
                "const" if self.t.get(self.i + 1).is_some_and(|t| t.is_ident("fn")) => {
                    self.i += 1;
                    continue;
                }
                "const" | "static" => {
                    self.parse_const(scope, is_pub, pending_test);
                }
                _ => {
                    // An item we do not model (struct, enum, type alias,
                    // item-level macro): consume it whole so a pending
                    // `#[cfg(test)]` applies to it and not to whatever
                    // follows. Its tokens stay included for ident-level
                    // rules.
                    let start = self.i;
                    self.skip_item();
                    if pending_test {
                        self.exclude(start, self.i);
                    }
                }
            }
            pending_test = false;
            is_pub = false;
        }
    }

    /// Parses `use <tree>;` from the `use` keyword.
    fn parse_use(&mut self, is_pub: bool, skip_record: bool) {
        self.i += 1; // `use`
        if self.cur_is_punct("::") {
            self.i += 1; // leading `::` (extern prelude)
        }
        let mut prefix = Vec::new();
        self.use_tree(&mut prefix, is_pub, skip_record);
        while let Some(tok) = self.cur() {
            let done = tok.is_punct(";");
            self.i += 1;
            if done {
                break;
            }
        }
    }

    fn use_tree(&mut self, prefix: &mut Vec<String>, is_pub: bool, skip_record: bool) {
        let depth = prefix.len();
        while let Some(tok) = self.cur() {
            if tok.is_punct("*") {
                let line = tok.line;
                self.i += 1;
                if !skip_record {
                    self.uses.push(UseBinding {
                        local: "*".to_string(),
                        target: prefix.clone(),
                        is_pub,
                        line,
                    });
                }
                break;
            }
            if tok.is_punct("{") {
                self.i += 1;
                loop {
                    if self.cur_is_punct("}") {
                        self.i += 1;
                        break;
                    }
                    if self.cur_is_punct(",") {
                        self.i += 1;
                        continue;
                    }
                    if self.cur().is_none() || self.cur_is_punct(";") {
                        break;
                    }
                    self.use_tree(prefix, is_pub, skip_record);
                }
                break;
            }
            if tok.kind != TokKind::Ident {
                break;
            }
            let seg = tok.text.clone();
            let line = tok.line;
            self.i += 1;
            if self.cur_is_punct("::") {
                prefix.push(seg);
                self.i += 1;
                continue;
            }
            // Leaf segment, possibly renamed.
            let mut target = prefix.clone();
            let mut local = seg.clone();
            if seg == "self" {
                local = prefix.last().cloned().unwrap_or_else(|| "self".to_string());
            } else {
                target.push(seg);
            }
            if self.cur_is_ident("as") {
                self.i += 1;
                if let Some(alias) = self.cur().filter(|t| t.kind == TokKind::Ident) {
                    local = alias.text.clone();
                    self.i += 1;
                }
            }
            if !skip_record {
                self.uses.push(UseBinding { local, target, is_pub, line });
            }
            break;
        }
        prefix.truncate(depth);
    }

    /// Parses an `impl` header from the `impl` keyword up to (not
    /// including) the body `{`; returns the self type's last path
    /// segment and whether it is a trait impl.
    fn parse_impl_header(&mut self) -> (Option<String>, bool) {
        self.i += 1; // `impl`
        if self.cur_is_punct("<") {
            self.skip_angle();
        }
        let mut ty: Option<String> = None;
        let mut trait_impl = false;
        let mut prev_was_pathsep = false;
        while let Some(tok) = self.cur() {
            if tok.is_punct("{") || tok.is_punct(";") {
                break;
            }
            if tok.is_ident("where") {
                while let Some(t) = self.cur() {
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    if t.is_punct("<") {
                        self.skip_angle();
                    } else {
                        self.i += 1;
                    }
                }
                break;
            }
            if tok.is_ident("for") {
                self.i += 1;
                if self.cur_is_punct("<") {
                    // `for<'a>` higher-ranked bound, not a trait impl.
                    self.skip_angle();
                } else {
                    ty = None;
                    trait_impl = true;
                }
                prev_was_pathsep = false;
                continue;
            }
            if tok.is_punct("<") {
                self.skip_angle();
                prev_was_pathsep = false;
                continue;
            }
            if tok.is_punct("(") {
                self.skip_balanced("(", ")");
                prev_was_pathsep = false;
                continue;
            }
            if tok.kind == TokKind::Ident {
                let word = tok.text.clone();
                if !matches!(word.as_str(), "dyn" | "const" | "unsafe" | "mut" | "async")
                    && (prev_was_pathsep || ty.is_none())
                {
                    ty = Some(word);
                }
                prev_was_pathsep = false;
                self.i += 1;
                continue;
            }
            prev_was_pathsep = tok.is_punct("::");
            self.i += 1;
        }
        (ty, trait_impl)
    }

    /// Parses a `const`/`static` item from its keyword through its `;`;
    /// records it, with the calls and value uses of its initializer,
    /// unless `excluded`.
    fn parse_const(&mut self, scope: Scope, is_pub: bool, excluded: bool) {
        let start = self.i;
        self.i += 1;
        if self.cur_is_ident("mut") {
            self.i += 1;
        }
        let name =
            self.cur().filter(|t| t.kind == TokKind::Ident).map(|t| (t.text.clone(), t.line));
        while let Some(tok) = self.cur() {
            if tok.is_punct(";") {
                break;
            }
            if tok.is_punct("{") {
                self.skip_balanced("{", "}");
            } else if tok.is_punct("(") {
                self.skip_balanced("(", ")");
            } else if tok.is_punct("[") {
                self.skip_balanced("[", "]");
            } else {
                self.i += 1;
            }
        }
        let end = self.i;
        self.i += 1;
        if excluded {
            self.exclude(start, self.i);
            return;
        }
        if let Some((name, line)) = name {
            self.fns.push(FnDef {
                name,
                self_ty: scope.self_ty.map(str::to_string),
                in_trait: scope.in_trait,
                line,
                is_pub,
                is_const: true,
                body: (start, end),
                calls: extract_calls(self.t, start, end),
            });
        }
    }

    /// Parses a `fn` item from the `fn` keyword; records it unless
    /// `excluded`.
    fn parse_fn(&mut self, scope: Scope, is_pub: bool, excluded: bool) {
        let fn_kw = self.i;
        self.i += 1; // `fn`
        let Some(name_tok) = self.cur().filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        if self.cur_is_punct("<") {
            self.skip_angle();
        }
        if self.cur_is_punct("(") {
            self.skip_balanced("(", ")");
        }
        // Return type / where clause, up to the body or `;`.
        loop {
            let Some(tok) = self.cur() else { return };
            if tok.is_punct(";") {
                self.i += 1;
                if !excluded {
                    self.fns.push(FnDef {
                        name,
                        self_ty: scope.self_ty.map(str::to_string),
                        in_trait: scope.in_trait,
                        line,
                        is_pub,
                        is_const: false,
                        body: (self.i, self.i),
                        calls: Vec::new(),
                    });
                }
                return;
            }
            if tok.is_punct("{") {
                break;
            }
            if tok.is_punct("<") {
                self.skip_angle();
            } else if tok.is_punct("(") {
                self.skip_balanced("(", ")");
            } else if tok.is_punct("[") {
                self.skip_balanced("[", "]");
            } else {
                self.i += 1;
            }
        }
        let body_start = self.i;
        self.skip_balanced("{", "}");
        let body_end = self.i;
        if excluded {
            self.exclude(fn_kw, body_end);
            return;
        }
        let calls = extract_calls(self.t, body_start + 1, body_end.saturating_sub(1));
        self.fns.push(FnDef {
            name,
            self_ty: scope.self_ty.map(str::to_string),
            in_trait: scope.in_trait,
            line,
            is_pub,
            is_const: false,
            body: (body_start, body_end),
            calls,
        });
    }
}

/// Whether a call's argument list opens at `j` (skipping one optional
/// turbofish `::<..>`), returning the index of the `(` if so.
fn call_paren_after(t: &[Tok], j: usize) -> Option<usize> {
    let next = t.get(j)?;
    if next.is_punct("(") {
        return Some(j);
    }
    if next.is_punct("::") && t.get(j + 1).is_some_and(|t| t.is_punct("<")) {
        // Skip the turbofish.
        let mut depth = 0usize;
        let mut k = j + 1;
        while let Some(tok) = t.get(k) {
            if tok.is_punct("<") {
                depth += 1;
            } else if tok.is_punct(">") && !t[k - 1].is_punct("-") {
                depth -= 1;
                if depth == 0 {
                    return t.get(k + 1).is_some_and(|t| t.is_punct("(")).then_some(k + 1);
                }
            }
            k += 1;
        }
    }
    None
}

/// The path ending at the identifier `t[j]`, walked backwards:
/// `a::b::name` gives `[a, b, name]`.
fn path_ending_at(t: &[Tok], j: usize) -> Vec<String> {
    let mut segs = vec![t[j].text.clone()];
    let mut k = j;
    while k >= 2 && t[k - 1].is_punct("::") && t[k - 2].kind == TokKind::Ident {
        segs.insert(0, t[k - 2].text.clone());
        k -= 2;
    }
    segs
}

/// Extracts call sites and value uses from a body token range.
fn extract_calls(t: &[Tok], from: usize, to: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    let to = to.min(t.len());
    for j in from..to {
        let tok = &t[j];
        if tok.kind != TokKind::Ident {
            continue;
        }
        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if t.get(j + 1).is_some_and(|n| n.is_punct("!"))
            && t.get(j + 2).is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
        {
            calls.push(Call { callee: Callee::Macro(tok.text.clone()), line: tok.line });
            continue;
        }
        if is_expr_keyword(&tok.text) {
            continue;
        }
        let prev = j.checked_sub(1).map(|k| &t[k]);
        let after_dot = prev.is_some_and(|p| p.is_punct("."));
        let after_path_sep = prev.is_some_and(|p| p.is_punct("::"));
        if call_paren_after(t, j + 1).is_none() {
            // A name used as a value still reaches what it names: a path
            // (`xs.map(Cycle::as_u64)`, `Some(Self::helper)`) at its final
            // segment, a bare name (`apply: helper`, `REPORTS.iter()`) as
            // itself. A field (`x.name`) and a path's leading segments are
            // not uses, and neither is `<T as Trait>::name`.
            let segs = path_ending_at(t, j);
            if !after_dot
                && !t.get(j + 1).is_some_and(|n| n.is_punct("::"))
                && (segs.len() > 1 || !after_path_sep)
            {
                calls.push(Call { callee: Callee::Path(segs), line: tok.line });
            }
            continue;
        }
        if after_dot {
            calls.push(Call { callee: Callee::Method(tok.text.clone()), line: tok.line });
            continue;
        }
        if after_path_sep {
            let segs = path_ending_at(t, j);
            if segs.len() == 1 {
                // `<T as Trait>::name(` — qualified path we cannot walk;
                // fall back to name-level matching.
                calls.push(Call { callee: Callee::Method(tok.text.clone()), line: tok.line });
            } else {
                calls.push(Call { callee: Callee::Path(segs), line: tok.line });
            }
            continue;
        }
        calls.push(Call { callee: Callee::Path(vec![tok.text.clone()]), line: tok.line });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;
    use crate::tokens::tokenize;

    fn model(src: &str) -> FileModel {
        parse_file("crates/vm/src/x.rs", tokenize(&strip(src)))
    }

    fn bindings(src: &str) -> Vec<(String, String, bool)> {
        model(src).uses.into_iter().map(|u| (u.local, u.target.join("::"), u.is_pub)).collect()
    }

    #[test]
    fn plain_use_binds_last_segment() {
        assert_eq!(
            bindings("use std::collections::BTreeMap;"),
            [("BTreeMap".into(), "std::collections::BTreeMap".into(), false)]
        );
    }

    #[test]
    fn renamed_use_binds_the_alias() {
        assert_eq!(
            bindings("use std::collections::HashMap as Map;"),
            [("Map".into(), "std::collections::HashMap".into(), false)]
        );
    }

    #[test]
    fn nested_groups_and_self() {
        assert_eq!(
            bindings("use a::b::{self, c::D, e as F};"),
            [
                ("b".into(), "a::b".into(), false),
                ("D".into(), "a::b::c::D".into(), false),
                ("F".into(), "a::b::e".into(), false),
            ]
        );
    }

    #[test]
    fn glob_imports_are_recorded() {
        assert_eq!(
            bindings("use std::collections::*;"),
            [("*".into(), "std::collections".into(), false)]
        );
    }

    #[test]
    fn pub_use_is_marked() {
        assert_eq!(
            bindings("pub use std::time::Instant as Clock;"),
            [("Clock".into(), "std::time::Instant".into(), true)]
        );
    }

    #[test]
    fn fns_carry_their_impl_type() {
        let m = model(
            "pub struct Tlb;\n\
             impl Tlb {\n    pub fn lookup(&self) -> u64 { self.probe() }\n}\n\
             impl Default for Tlb {\n    fn default() -> Self { Tlb }\n}\n\
             fn free_fn() {}\n",
        );
        let sigs: Vec<_> = m.fns.iter().map(|f| (f.self_ty.as_deref(), f.name.as_str())).collect();
        assert_eq!(sigs, [(Some("Tlb"), "lookup"), (Some("Tlb"), "default"), (None, "free_fn")]);
    }

    #[test]
    fn trait_methods_carry_the_trait_name() {
        let m = model("trait Sink {\n    fn record(&mut self);\n    fn flush(&mut self) {}\n}\n");
        let sigs: Vec<_> = m.fns.iter().map(|f| (f.self_ty.as_deref(), f.name.as_str())).collect();
        assert_eq!(sigs, [(Some("Sink"), "record"), (Some("Sink"), "flush")]);
    }

    #[test]
    fn generic_impls_resolve_the_self_type() {
        let m = model(
            "impl<S: WarpStream> Sm<S> { fn advance(&mut self) {} }\n\
             impl WarpStream for Box<dyn WarpStream> { fn next_op(&mut self) {} }\n",
        );
        let sigs: Vec<_> = m.fns.iter().map(|f| (f.self_ty.as_deref(), f.name.as_str())).collect();
        assert_eq!(sigs, [(Some("Sm"), "advance"), (Some("Box"), "next_op")]);
    }

    #[test]
    fn calls_are_extracted_with_shape() {
        let m = model(
            "fn f(x: &T) {\n\
             \x20   helper(1);\n\
             \x20   x.method(2);\n\
             \x20   Tlb::lookup(x);\n\
             \x20   crate::module::free(3);\n\
             \x20   panic!(\"boom\");\n\
             \x20   let v: Vec<u64> = xs.iter().collect::<Vec<_>>();\n\
             }\n",
        );
        let calls = &m.fns[0].calls;
        assert!(calls.contains(&Call { callee: Callee::Path(vec!["helper".into()]), line: 2 }));
        assert!(calls.contains(&Call { callee: Callee::Method("method".into()), line: 3 }));
        assert!(calls.contains(&Call {
            callee: Callee::Path(vec!["Tlb".into(), "lookup".into()]),
            line: 4
        }));
        assert!(calls.contains(&Call {
            callee: Callee::Path(vec!["crate".into(), "module".into(), "free".into()]),
            line: 5
        }));
        assert!(calls.contains(&Call { callee: Callee::Macro("panic".into()), line: 6 }));
        assert!(calls.contains(&Call { callee: Callee::Method("collect".into()), line: 7 }));
    }

    #[test]
    fn fns_record_visibility_and_trait_scope() {
        let m = model(
            "pub fn a() {}\nfn b() {}\n\
             impl T { pub(crate) fn c() {} }\n\
             impl Tr for T { fn d() {} }\n\
             pub trait Tr { fn e(); }\n",
        );
        let sigs: Vec<_> = m.fns.iter().map(|f| (f.name.as_str(), f.is_pub, f.in_trait)).collect();
        assert_eq!(
            sigs,
            [
                ("a", true, false),
                ("b", false, false),
                ("c", true, false),
                ("d", false, true),
                ("e", false, true)
            ]
        );
    }

    #[test]
    fn const_and_static_items_record_their_initializer() {
        let m = model(
            "pub const TABLE: &[Row] = &[Row { apply: helper }, Row { apply: |x| Self::go(x) }];\n\
             static mut S: u8 = init();\nfn after() {}\n",
        );
        let items: Vec<_> = m.fns.iter().map(|f| (f.name.as_str(), f.is_pub, f.is_const)).collect();
        assert_eq!(items, [("TABLE", true, true), ("S", false, true), ("after", false, false)]);
        let table = &m.fns[0].calls;
        assert!(table.contains(&Call { callee: Callee::Path(vec!["helper".into()]), line: 1 }));
        assert!(table
            .contains(&Call { callee: Callee::Path(vec!["Self".into(), "go".into()]), line: 1 }));
        assert!(m.fns[1]
            .calls
            .contains(&Call { callee: Callee::Path(vec!["init".into()]), line: 2 }));
    }

    #[test]
    fn names_used_as_values_are_recorded() {
        let m = model(
            "fn f(x: S) {\n    xs.map(Type::method);\n    let g = helper;\n    x.field;\n}\n",
        );
        let calls = &m.fns[0].calls;
        assert!(calls.contains(&Call {
            callee: Callee::Path(vec!["Type".into(), "method".into()]),
            line: 2
        }));
        assert!(calls.contains(&Call { callee: Callee::Path(vec!["helper".into()]), line: 3 }));
        assert!(!calls.iter().any(|c| matches!(&c.callee, Callee::Path(p) if p == &["field"])));
        // A path's leading segment is not a use of its own.
        assert!(!calls.iter().any(|c| matches!(&c.callee, Callee::Path(p) if p == &["Type"])));
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let m = model(
            "fn real() { helper(); }\n\
             #[cfg(test)]\nmod tests {\n    fn fake() { panic!(\"x\"); }\n}\n",
        );
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "real");
        // Tokens of the test module are excluded.
        let excluded_idents: Vec<_> = m
            .tokens
            .iter()
            .zip(&m.included)
            .filter(|(t, inc)| !**inc && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(excluded_idents.contains(&"fake"));
        assert!(!excluded_idents.contains(&"real"));
    }

    #[test]
    fn cfg_test_fn_is_excluded_mid_file() {
        let m = model("#[cfg(test)]\nfn probe() {}\nfn real() {}\n");
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn attributes_are_excluded_from_matching() {
        let m = model("#[derive(Debug, Clone)]\npub struct S;\n");
        let derive = m.tokens.iter().position(|t| t.is_ident("Debug")).unwrap();
        assert!(!m.included[derive]);
        let s = m.tokens.iter().position(|t| t.is_ident("S")).unwrap();
        assert!(m.included[s]);
    }

    #[test]
    fn crate_idents_derive_from_paths() {
        assert_eq!(crate_ident("crates/vm/src/tlb.rs"), "mosaic_vm");
        assert_eq!(crate_ident("crates/sim-core/src/rng.rs"), "mosaic_sim_core");
        assert_eq!(crate_ident("src/lib.rs"), "mosaic");
        assert_eq!(crate_ident("crates/analysis/src/lib.rs"), "mosaic_audit");
    }
}
