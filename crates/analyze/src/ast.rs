//! A lightweight recursive-descent parser over the lexer's token
//! stream, producing just enough AST for every pass: function items
//! (with byte spans and body token ranges), `impl` blocks (so methods
//! carry their type), `mod` nesting, `use` declarations (for
//! cross-crate call resolution), every call expression and lock
//! acquisition inside each function body, and the file-level facts the
//! local lints read — test-item ranges, `use` ranges and inner
//! attributes. It is the one walk that finds a file's structure.
//!
//! The parser never fails and never panics: malformed input degrades to
//! fewer or sloppier items, which the over-approximate passes tolerate.
//! Depth counters are clamped, lookahead is bounds-checked, and the
//! fuzz harness (`tests/parser_fuzz.rs`) pins panic-freedom plus the
//! lossless span property — every token's span slices its exact text
//! and inter-token gaps are pure whitespace.

use crate::lexer::{Tok, TokKind};

/// Byte range in the original source (`lo..hi`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First byte of the spanned text.
    pub lo: usize,
    /// One past the last byte.
    pub hi: usize,
}

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — a bare function call.
    Plain,
    /// `Type::foo(...)` / `module::foo(...)` — a path call; the last
    /// qualifying segment is recorded.
    Path,
    /// `recv.foo(...)` — a method call (receiver type unknown).
    Method,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Resolution shape.
    pub kind: CallKind,
    /// For [`CallKind::Path`]: the path segment directly before the
    /// callee name (`Evaluator` in `Evaluator::new`). For
    /// [`CallKind::Method`]: `self` when the receiver is exactly `self`.
    /// Empty otherwise.
    pub qualifier: String,
    /// Simple callee name.
    pub name: String,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// Token index of the callee name (orders calls against lock
    /// acquisitions when building per-function event sequences).
    pub tok: usize,
    /// Unchecked arithmetic context at the call site: `"+"`, `"*"`,
    /// or `"as <ty>"` applied directly to the call result (ARITH-02).
    /// Empty when none.
    pub arith: String,
}

/// One lock acquisition inside a function body (see `lock_label`).
#[derive(Clone, Debug)]
pub(crate) struct Acq {
    /// Normalized lock label.
    pub(crate) label: String,
    /// 1-based line.
    pub(crate) line: usize,
    /// Token index (orders acquisitions against calls).
    pub(crate) tok: usize,
}

/// One parsed function (free function or method).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl` type name, or empty for free functions.
    pub impl_type: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword (classifies the item against
    /// `#[cfg(test)]` ranges).
    pub tok: usize,
    /// Byte span from the `fn` keyword to the closing brace (or `;`).
    pub span: Span,
    /// Token-index range of the body including braces, when present.
    pub body: Option<(usize, usize)>,
    /// Call expressions in the body, in token order.
    pub calls: Vec<Call>,
    /// Lock acquisitions in the body, in token order.
    pub(crate) acqs: Vec<Acq>,
}

/// One `use` declaration leaf: `use soctam_exec::FpKey` yields
/// `(leaf: "FpKey", root: "soctam_exec")`; grouped imports produce one
/// entry per leaf, `as` renames record the alias.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// The name the declaration brings into scope.
    pub leaf: String,
    /// The first path segment (`std`, `crate`, `soctam_exec`, ...).
    pub root: String,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct Ast {
    /// Indices of non-comment tokens.
    pub(crate) code: Vec<usize>,
    /// Every function item, in source order (nested functions are
    /// separate entries; calls and acquisitions belong to the innermost
    /// function).
    pub fns: Vec<FnDef>,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Inclusive token-index ranges of `#[test]` / `#[cfg(test)]` items,
    /// from the attribute to the item's closing `}` or `;`. Sorted and
    /// disjoint: an item nested in a test item is not listed again.
    pub(crate) test_ranges: Vec<(usize, usize)>,
    /// Inclusive token-index ranges of `use` declarations, from the
    /// `use` keyword to its `;`.
    pub(crate) use_ranges: Vec<(usize, usize)>,
    /// Inner attributes (`#![...]`), their code tokens concatenated
    /// without whitespace.
    pub(crate) inner_attrs: Vec<String>,
}

/// Keywords that must not be mistaken for callee names.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "fn"
            | "as"
            | "in"
            | "move"
            | "break"
            | "continue"
            | "else"
            | "unsafe"
            | "let"
            | "mut"
            | "ref"
            | "dyn"
            | "impl"
            | "where"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "mod"
            | "extern"
            | "async"
            | "await"
            | "yield"
            | "box"
            | "self"
            | "Self"
    )
}

/// Cast targets ARITH-01 and ARITH-02 treat as narrowing.
pub(crate) const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "i64", "isize"];

/// What a `{` opened, tracked on a stack so `}` pops the right thing.
enum ScopeKind {
    /// `mod name {` — pops one module-path segment.
    Mod,
    /// `impl Type {` — pops the impl-type stack.
    Impl,
    /// A function body; the index selects `Ast::fns`.
    Fn(usize),
    /// Any other brace (block, struct literal, match, ...).
    Block,
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    ast: Ast,
    scopes: Vec<ScopeKind>,
    impl_stack: Vec<String>,
    /// Innermost open function, as a stack of `Ast::fns` indices.
    fn_stack: Vec<usize>,
}

/// Parses a token stream into an [`Ast`]. Never fails.
#[must_use]
pub fn parse(toks: &[Tok]) -> Ast {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut parser = Parser {
        toks,
        code,
        ast: Ast::default(),
        scopes: Vec::new(),
        impl_stack: Vec::new(),
        fn_stack: Vec::new(),
    };
    parser.run();
    Ast {
        code: parser.code,
        ..parser.ast
    }
}

impl<'a> Parser<'a> {
    fn text(&self, p: usize) -> &str {
        self.code
            .get(p)
            .map(|&i| self.toks[i].text.as_str())
            .unwrap_or("")
    }

    fn kind(&self, p: usize) -> Option<TokKind> {
        self.code.get(p).map(|&i| self.toks[i].kind)
    }

    fn tok(&self, p: usize) -> Option<&Tok> {
        self.code.get(p).map(|&i| &self.toks[i])
    }

    fn run(&mut self) {
        let mut p = 0usize;
        while p < self.code.len() {
            p = self.step(p);
        }
        // Close any still-open functions at EOF (unterminated input).
        let end = self.toks.last().map(Tok::hi).unwrap_or(0);
        while let Some(f) = self.fn_stack.pop() {
            if let Some(def) = self.ast.fns.get_mut(f) {
                def.span.hi = def.span.hi.max(end);
            }
        }
    }

    /// Processes the code token at position `p`; returns the next
    /// position to look at.
    fn step(&mut self, p: usize) -> usize {
        match self.text(p) {
            "#" => self.skip_attr(p),
            "use" => self.parse_use(p),
            "mod" => self.parse_mod(p),
            "impl" => self.parse_impl(p),
            "fn" => self.parse_fn(p),
            "{" => {
                self.scopes.push(ScopeKind::Block);
                p + 1
            }
            "}" => {
                self.close_brace(p);
                p + 1
            }
            _ => {
                self.maybe_acq(p);
                self.maybe_call(p);
                p + 1
            }
        }
    }

    fn close_brace(&mut self, p: usize) {
        match self.scopes.pop() {
            Some(ScopeKind::Mod) => {}
            Some(ScopeKind::Impl) => {
                self.impl_stack.pop();
            }
            Some(ScopeKind::Fn(f)) => {
                self.fn_stack.pop();
                let hi = self.tok(p).map(Tok::hi).unwrap_or(0);
                if let Some(def) = self.ast.fns.get_mut(f) {
                    def.span.hi = def.span.hi.max(hi);
                    if let Some((start, _)) = def.body {
                        def.body = Some((start, self.code[p]));
                    }
                }
            }
            Some(ScopeKind::Block) | None => {}
        }
    }

    /// Code position just past the attribute opening at `#` (outer
    /// `#[..]` or inner `#![..]`), or `None` when `p` opens none.
    fn attr_end(&self, p: usize) -> Option<usize> {
        let mut j = p + 1;
        if self.text(j) == "!" {
            j += 1;
        }
        if self.text(j) != "[" {
            return None;
        }
        let mut depth = 0i64;
        while j < self.code.len() {
            match self.text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth <= 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        Some(j)
    }

    /// Skips an attribute starting at `#`, recording the text of an
    /// inner attribute and the range of a test-gated item.
    fn skip_attr(&mut self, p: usize) -> usize {
        let Some(end) = self.attr_end(p) else {
            return p + 1;
        };
        if self.text(p + 1) == "!" {
            let text = self.code[p..end]
                .iter()
                .map(|&i| self.toks[i].text.as_str())
                .collect();
            self.ast.inner_attrs.push(text);
        } else if self.is_test_gate(p + 1, end) {
            let lo = self.code[p];
            // An item nested in a test item is already covered.
            if !self.ast.test_ranges.last().is_some_and(|&(_, hi)| lo <= hi) {
                let hi = self.item_end(end);
                self.ast.test_ranges.push((lo, hi));
            }
        }
        end
    }

    /// Does the outer attribute whose `[` sits at `open` (and which ends
    /// before `end`) gate its item on `test`? `#[test]` does, and so
    /// does a `cfg` predicate that requires `test`: `all(..)` keeps the
    /// requirement, while `not(..)` and `any(..)` release it.
    fn is_test_gate(&self, open: usize, end: usize) -> bool {
        if self.text(open + 1) == "test" {
            return self.text(open + 2) == "]";
        }
        // Per open paren: does the predicate still require `test`? The
        // outermost paren requires it only as `cfg(..)`.
        let mut requires: Vec<bool> = Vec::new();
        for j in open + 2..end {
            match self.text(j) {
                "(" => {
                    let parent = requires.last().copied().unwrap_or(true);
                    requires.push(parent && matches!(self.text(j - 1), "cfg" | "all"));
                }
                ")" => drop(requires.pop()),
                "test" if requires.last() == Some(&true) => return true,
                _ => {}
            }
        }
        false
    }

    /// Token index of the last token of the item whose header starts at
    /// code position `j`: further attributes are skipped, and the item
    /// ends at the `}` matching its first top-level `{` or at a
    /// top-level `;`. An unterminated item runs to the end of the file.
    fn item_end(&self, mut j: usize) -> usize {
        let eof = self.toks.len().saturating_sub(1);
        let mut depth = 0i64;
        while j < self.code.len() {
            match self.text(j) {
                "#" if depth == 0 => {
                    j = self.attr_end(j).unwrap_or(j + 1);
                    continue;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let mut braces = 0i64;
                    while j < self.code.len() {
                        match self.text(j) {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    return self.code[j];
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return eof;
                }
                ";" if depth == 0 => return self.code[j],
                _ => {}
            }
            j += 1;
        }
        eof
    }

    /// Parses a `use` declaration, flattening groups and renames.
    fn parse_use(&mut self, p: usize) -> usize {
        let mut j = p + 1;
        if self.text(j) == "pub" {
            j += 1;
        }
        let mut root = String::new();
        let mut last_ident = String::new();
        let mut pending_alias = false;
        while j < self.code.len() {
            let t = self.text(j).to_string();
            match t.as_str() {
                ";" => {
                    if !last_ident.is_empty() {
                        self.push_use(&last_ident, &root);
                    }
                    break;
                }
                "{" => {
                    // The segment before a group is a module path, not
                    // an imported leaf.
                    last_ident.clear();
                    pending_alias = false;
                }
                "," => {
                    if !last_ident.is_empty() {
                        self.push_use(&last_ident, &root);
                        last_ident.clear();
                    }
                    pending_alias = false;
                }
                "}" | ":" | "*" => {}
                "as" => pending_alias = true,
                _ => {
                    if self.kind(j) == Some(TokKind::Ident) {
                        if root.is_empty() {
                            root = t.clone();
                        }
                        if pending_alias {
                            pending_alias = false;
                        }
                        last_ident = t;
                    }
                }
            }
            j += 1;
        }
        // The declaration ends at its `;`, or at the end of the file.
        let hi = self.code.get(j).map_or(self.toks.len() - 1, |&i| i);
        self.ast.use_ranges.push((self.code[p], hi));
        j + 1
    }

    fn push_use(&mut self, leaf: &str, root: &str) {
        if leaf.is_empty() || leaf == "self" {
            return;
        }
        self.ast.uses.push(UseDecl {
            leaf: leaf.to_string(),
            root: root.to_string(),
        });
    }

    fn parse_mod(&mut self, p: usize) -> usize {
        // `mod name;` declares a file module; `mod name {` opens one.
        let mut j = p + 1;
        while j < self.code.len() {
            match self.text(j) {
                "{" => {
                    self.scopes.push(ScopeKind::Mod);
                    return j + 1;
                }
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        j
    }

    /// Parses an `impl` header, extracting the implemented type name.
    fn parse_impl(&mut self, p: usize) -> usize {
        let mut j = p + 1;
        let mut angle = 0i64;
        let mut after_for = false;
        let mut ty = String::new();
        while j < self.code.len() {
            let t = self.text(j);
            match t {
                "<" => angle += 1,
                ">" => {
                    // `->` arrows inside generic bounds don't close.
                    if self.text(j.wrapping_sub(1)) != "-" {
                        angle = (angle - 1).max(0);
                    }
                }
                "{" if angle == 0 => {
                    self.impl_stack.push(ty);
                    self.scopes.push(ScopeKind::Impl);
                    return j + 1;
                }
                ";" if angle == 0 => return j + 1, // `impl Trait for Ty;`-ish degenerate
                "for" if angle == 0 => {
                    after_for = true;
                    ty.clear();
                }
                "where" if angle == 0 => {
                    // The type is fixed once the where clause starts.
                    after_for = true; // freeze: idents below no longer overwrite
                    while j < self.code.len() && !(self.text(j) == "{" && angle == 0) {
                        match self.text(j) {
                            "<" => angle += 1,
                            ">" if self.text(j.wrapping_sub(1)) != "-" => {
                                angle = (angle - 1).max(0);
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    continue;
                }
                _ => {
                    if angle == 0
                        && self.kind(j) == Some(TokKind::Ident)
                        && !matches!(t, "mut" | "dyn" | "const" | "unsafe")
                        && (ty.is_empty() || !after_for || ty.is_empty())
                    {
                        // Keep the last top-level ident seen (the type's
                        // final path segment); `for` resets it so the
                        // implementing type wins over the trait.
                        ty = t.to_string();
                    }
                }
            }
            j += 1;
        }
        j
    }

    /// Parses a `fn` item header and opens its body scope.
    fn parse_fn(&mut self, p: usize) -> usize {
        let Some(name_tok) = self.tok(p + 1) else {
            return p + 1;
        };
        if name_tok.kind != TokKind::Ident || is_keyword(&name_tok.text) {
            // `fn(` in type position, or garbage.
            return p + 1;
        }
        let name = name_tok.text.clone();
        let lo = self.tok(p).map(|t| t.lo).unwrap_or(0);
        let line = self.tok(p).map(|t| t.line).unwrap_or(1);
        let impl_type = self.impl_stack.last().cloned().unwrap_or_default();

        // Scan the signature for the body `{` or a terminating `;`.
        let mut j = p + 2;
        let mut paren = 0i64;
        let mut angle = 0i64;
        let mut bracket = 0i64;
        while j < self.code.len() {
            match self.text(j) {
                "(" => paren += 1,
                ")" => paren = (paren - 1).max(0),
                "[" => bracket += 1,
                "]" => bracket = (bracket - 1).max(0),
                "<" => angle += 1,
                ">" if self.text(j.wrapping_sub(1)) != "-" => angle = (angle - 1).max(0),
                "{" if paren == 0 && bracket == 0 => {
                    // Body. (Angle depth is deliberately ignored here:
                    // an unbalanced `<` from a stray comparison must not
                    // swallow the body.)
                    let hi = self.tok(j).map(Tok::hi).unwrap_or(lo);
                    self.ast.fns.push(FnDef {
                        name,
                        impl_type,
                        line,
                        tok: self.code[p],
                        span: Span { lo, hi },
                        body: Some((self.code[j], self.code[j])),
                        calls: Vec::new(),
                        acqs: Vec::new(),
                    });
                    let f = self.ast.fns.len() - 1;
                    self.scopes.push(ScopeKind::Fn(f));
                    self.fn_stack.push(f);
                    return j + 1;
                }
                ";" if paren == 0 && bracket == 0 => {
                    let hi = self.tok(j).map(Tok::hi).unwrap_or(lo);
                    self.ast.fns.push(FnDef {
                        name,
                        impl_type,
                        line,
                        tok: self.code[p],
                        span: Span { lo, hi },
                        body: None,
                        calls: Vec::new(),
                        acqs: Vec::new(),
                    });
                    return j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Records a lock acquisition at position `p` in the innermost open
    /// function.
    fn maybe_acq(&mut self, p: usize) {
        let (Some(&f), Some(label)) = (self.fn_stack.last(), lock_label(self.toks, &self.code, p))
        else {
            return;
        };
        let tok = self.code[p];
        let line = self.toks[tok].line;
        if let Some(def) = self.ast.fns.get_mut(f) {
            def.acqs.push(Acq { label, line, tok });
        }
    }

    /// Records a call expression when the token at `p` is a callee name
    /// followed by `(` inside an open function body.
    fn maybe_call(&mut self, p: usize) {
        let Some(&f) = self.fn_stack.last() else {
            return;
        };
        let Some(tok) = self.tok(p) else { return };
        if tok.kind != TokKind::Ident || is_keyword(&tok.text) {
            return;
        }
        if self.text(p + 1) != "(" {
            return;
        }
        let prev = self.text(p.wrapping_sub(1));
        // `fn name(` is a declaration (nested fns are handled by
        // `parse_fn`; this guards signatures the scanner walks past).
        if prev == "fn" {
            return;
        }
        let (kind, qualifier) = if prev == "." {
            let bare_self =
                self.text(p.wrapping_sub(2)) == "self" && self.text(p.wrapping_sub(3)) != ".";
            let qual = if bare_self { "self" } else { "" };
            (CallKind::Method, qual.to_string())
        } else if prev == ":" && self.text(p.wrapping_sub(2)) == ":" {
            let q = p.wrapping_sub(3);
            let qual = match self.kind(q) {
                Some(TokKind::Ident) => self.text(q).to_string(),
                _ => String::new(),
            };
            (CallKind::Path, qual)
        } else {
            (CallKind::Plain, String::new())
        };
        let arith = self.call_arith(p, kind);
        let name = tok.text.clone();
        let line = tok.line;
        let tok_idx = self.code[p];
        if let Some(def) = self.ast.fns.get_mut(f) {
            def.calls.push(Call {
                kind,
                qualifier,
                name,
                line,
                tok: tok_idx,
                arith,
            });
        }
    }

    /// Detects an unchecked `+`/`*`/narrowing-`as` applied directly to
    /// the call at position `p` (callee name; `p + 1` is `(`).
    fn call_arith(&self, p: usize, kind: CallKind) -> String {
        // After: find the matching `)` and look at the next token.
        let mut depth = 0i64;
        let mut j = p + 1;
        let close = loop {
            if j >= self.code.len() || j > p + 4096 {
                break None;
            }
            match self.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        };
        if let Some(q) = close {
            match self.text(q + 1) {
                // `+=` / `*=` cannot follow a call expression, so a bare
                // `+` / `*` here means the call result is a binary operand.
                "+" | "*" if self.text(q + 2) != "=" => {
                    return self.text(q + 1).to_string();
                }
                "as" => {
                    let target = self.text(q + 2);
                    if NARROW_CASTS.contains(&target) {
                        return format!("as {target}");
                    }
                }
                _ => {}
            }
        }
        // Before: `x + quantity()` — the token before the callee path
        // start must be a binary `+`/`*` whose own predecessor ends an
        // operand.
        if kind == CallKind::Method {
            return String::new();
        }
        let mut start = p;
        if kind == CallKind::Path {
            // Walk back over `seg::seg::` pairs.
            while start >= 3
                && self.text(start.wrapping_sub(1)) == ":"
                && self.text(start.wrapping_sub(2)) == ":"
                && self.kind(start.wrapping_sub(3)) == Some(TokKind::Ident)
            {
                start = start.wrapping_sub(3);
            }
        }
        if start == 0 {
            return String::new();
        }
        let op = self.text(start - 1);
        if (op == "+" || op == "*") && start >= 2 {
            let before = start - 2;
            let terminates = matches!(self.kind(before), Some(TokKind::Ident) | Some(TokKind::Int))
                || matches!(self.text(before), ")" | "]");
            if terminates && !is_keyword(self.text(before)) {
                return op.to_string();
            }
        }
        // Compound assignment `x += quantity()`.
        if op == "=" && start >= 2 {
            let c = self.text(start - 2);
            if c == "+" || c == "*" {
                return c.to_string();
            }
        }
        String::new()
    }
}

/// If the code token at position `p` (an index into `code`) is a lock
/// acquisition, returns its normalized label: the argument path of a
/// `lock_recover`/`lock_shard` helper call, `fault::registry` for
/// `lock_registry`, or the receiver chain of `.lock()`/`.read()`/
/// `.write()`, with index expressions normalized to `[_]`.
fn lock_label(toks: &[Tok], code: &[usize], p: usize) -> Option<String> {
    let tok = &toks[code[p]];
    let next_is = |off: usize, s: &str| code.get(p + off).is_some_and(|&j| toks[j].text == s);
    if tok.kind == TokKind::Ident
        && (tok.text == "lock_recover" || tok.text == "lock_shard")
        && next_is(1, "(")
    {
        // Helper call: label is the argument path.
        let mut parts = Vec::new();
        let mut j = p + 2;
        let mut depth = 1i32;
        while let Some(&ti) = code.get(j) {
            match toks[ti].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "&" | "mut" => {}
                "[" => {
                    // Normalize index expressions.
                    let mut d = 1i32;
                    j += 1;
                    while let Some(&ui) = code.get(j) {
                        match toks[ui].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    parts.push("[_]".to_string());
                }
                t => parts.push(t.to_string()),
            }
            j += 1;
        }
        return Some(parts.concat());
    }
    if tok.kind == TokKind::Ident && tok.text == "lock_registry" && next_is(1, "(") {
        return Some("fault::registry".to_string());
    }
    // Method form: `<receiver>.lock()` / `.read()` / `.write()`.
    if tok.kind == TokKind::Punct && tok.text == "." {
        let method = code.get(p + 1).map(|&j| &toks[j]);
        let is_acq = method.is_some_and(|m| {
            m.kind == TokKind::Ident && matches!(m.text.as_str(), "lock" | "read" | "write")
        });
        if is_acq && next_is(2, "(") && next_is(3, ")") {
            // Walk backwards over the receiver chain.
            let mut parts: Vec<String> = Vec::new();
            let mut j = p;
            while j > 0 {
                let prev = &toks[code[j - 1]];
                match (prev.kind, prev.text.as_str()) {
                    (TokKind::Ident, t) => {
                        parts.push(t.to_string());
                        j -= 1;
                    }
                    (TokKind::Punct, "." | ":") => {
                        parts.push(prev.text.clone());
                        j -= 1;
                    }
                    (TokKind::Punct, "]") => {
                        // Normalize `[expr]` and continue left.
                        let mut d = 1i32;
                        j -= 1;
                        while j > 0 {
                            let t = &toks[code[j - 1]];
                            match t.text.as_str() {
                                "]" => d += 1,
                                "[" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j -= 1;
                        }
                        j -= 1;
                        parts.push("[_]".to_string());
                    }
                    _ => break,
                }
            }
            if parts.is_empty() {
                return None;
            }
            parts.reverse();
            return Some(parts.concat());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    /// Each inclusive token range as the source text it spans.
    fn spans<'s>(src: &'s str, ranges: &[(usize, usize)]) -> Vec<&'s str> {
        let toks = lex(src);
        ranges
            .iter()
            .map(|&(lo, hi)| &src[toks[lo].lo..toks[hi].hi()])
            .collect()
    }

    /// Names of the functions inside a test item.
    fn test_fns(ast: &Ast) -> Vec<&str> {
        ast.fns
            .iter()
            .filter(|f| {
                ast.test_ranges
                    .iter()
                    .any(|&(lo, hi)| lo <= f.tok && f.tok <= hi)
            })
            .map(|f| f.name.as_str())
            .collect()
    }

    #[test]
    fn finds_free_fns_methods_and_impl_types() {
        let ast = parse_src(
            "fn free() {}\n\
             struct Foo;\n\
             impl Foo { fn method(&self) -> u32 { helper() } }\n\
             impl std::fmt::Debug for Foo { fn fmt(&self) {} }",
        );
        let names: Vec<(&str, &str)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_str()))
            .collect();
        assert_eq!(names, vec![("free", ""), ("method", "Foo"), ("fmt", "Foo")]);
        assert_eq!(ast.fns[1].calls.len(), 1);
        assert_eq!(ast.fns[1].calls[0].name, "helper");
        assert_eq!(ast.fns[1].calls[0].kind, CallKind::Plain);
    }

    #[test]
    fn call_kinds_and_qualifiers() {
        let ast = parse_src(
            "fn f() { plain(); Type::assoc(); a::b::nested(); recv.method(); mac!(x); \
             self.own(); self.field.other(); }",
        );
        let calls = &ast.fns[0].calls;
        let summary: Vec<(CallKind, &str, &str)> = calls
            .iter()
            .map(|c| (c.kind, c.qualifier.as_str(), c.name.as_str()))
            .collect();
        assert_eq!(
            summary,
            vec![
                (CallKind::Plain, "", "plain"),
                (CallKind::Path, "Type", "assoc"),
                (CallKind::Path, "b", "nested"),
                (CallKind::Method, "", "method"),
                (CallKind::Method, "self", "own"),
                (CallKind::Method, "", "other"),
            ]
        );
    }

    #[test]
    fn test_items_run_from_the_attribute_to_the_item_end() {
        let src = "#[cfg(test)]\nuse x::y;\n\
                   #[cfg(test)]\nconst T: [u8; 3] = [1, 2, 3];\n\
                   fn prod() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let ast = parse_src(src);
        assert_eq!(
            spans(src, &ast.test_ranges),
            [
                "#[cfg(test)]\nuse x::y;",
                "#[cfg(test)]\nconst T: [u8; 3] = [1, 2, 3];",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}",
            ]
        );
        assert_eq!(test_fns(&ast), ["t"]);
    }

    #[test]
    fn only_a_required_test_predicate_gates_an_item() {
        let ast = parse_src(
            "#[cfg(not(test))] fn a() {}\n\
             #[cfg(any(test, feature = \"x\"))] fn b() {}\n\
             #[cfg(all(test, feature = \"x\"))] fn c() {}\n\
             #[cfg(all(unix, not(test)))] fn d() {}\n\
             #[cfg_attr(test, allow(dead_code))] fn e() {}\n\
             #[test] fn f() {}\n",
        );
        assert_eq!(test_fns(&ast), ["c", "f"]);
    }

    #[test]
    fn use_ranges_cover_pub_grouped_and_nested_imports() {
        let src = "pub use a::b;\nuse std::{fmt, io::{self, Read}};\nfn f() { use c::d; }\n";
        let ast = parse_src(src);
        assert_eq!(
            spans(src, &ast.use_ranges),
            [
                "use a::b;",
                "use std::{fmt, io::{self, Read}};",
                "use c::d;"
            ]
        );
    }

    #[test]
    fn inner_attributes_are_recorded_without_whitespace() {
        let ast = parse_src(
            "#![forbid(unsafe_code)]\n\
             #![cfg_attr(test, allow(clippy::unwrap_used))]\n\
             #[derive(Debug)]\nstruct S;\n",
        );
        assert_eq!(
            ast.inner_attrs,
            [
                "#![forbid(unsafe_code)]",
                "#![cfg_attr(test,allow(clippy::unwrap_used))]"
            ]
        );
    }

    #[test]
    fn acquisitions_belong_to_the_innermost_fn() {
        let ast = parse_src(
            "fn outer(a: &Mutex<u8>) {\n\
                 let _a = a.lock();\n\
                 fn inner(b: &RwLock<u8>) { let _b = b.read(); }\n\
                 let _c = lock_recover(&self.c[i]);\n\
             }\n",
        );
        let acqs = |name: &str| -> Vec<(String, usize)> {
            let def = ast.fns.iter().find(|f| f.name == name).unwrap();
            def.acqs.iter().map(|a| (a.label.clone(), a.line)).collect()
        };
        assert_eq!(
            acqs("outer"),
            [("a".to_string(), 2), ("self.c[_]".to_string(), 4)]
        );
        assert_eq!(acqs("inner"), [("b".to_string(), 3)]);
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let ast = parse_src("fn outer() { fn inner() { deep(); } shallow(); }");
        assert_eq!(ast.fns.len(), 2);
        let outer = ast.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = ast.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "deep");
    }

    #[test]
    fn trait_decls_have_no_body() {
        let ast = parse_src("trait T { fn required(&self) -> u32; fn provided(&self) {} }");
        assert_eq!(ast.fns.len(), 2);
        assert!(ast.fns[0].body.is_none());
        assert!(ast.fns[1].body.is_some());
    }

    #[test]
    fn use_decls_flatten_groups_and_renames() {
        let ast = parse_src(
            "use std::collections::{BTreeMap, BTreeSet};\n\
             use soctam_exec::FpKey;\n\
             use crate::lexer::lex as tokenize;",
        );
        let flat: Vec<(&str, &str)> = ast
            .uses
            .iter()
            .map(|u| (u.leaf.as_str(), u.root.as_str()))
            .collect();
        assert_eq!(
            flat,
            vec![
                ("BTreeMap", "std"),
                ("BTreeSet", "std"),
                ("FpKey", "soctam_exec"),
                ("tokenize", "crate"),
            ]
        );
    }

    #[test]
    fn arith_context_is_detected_on_call_results() {
        let ast = parse_src(
            "fn f() -> u64 { total_time() + 1 }\n\
             fn g() -> u64 { 2 * pattern_count() }\n\
             fn h() -> u32 { wide() as u32 }\n\
             fn ok() -> u64 { safe().saturating_add(1) }",
        );
        let arith: Vec<(&str, &str)> = ast
            .fns
            .iter()
            .flat_map(|f| f.calls.iter())
            .map(|c| (c.name.as_str(), c.arith.as_str()))
            .collect();
        assert!(arith.contains(&("total_time", "+")));
        assert!(arith.contains(&("pattern_count", "*")));
        assert!(arith.contains(&("wide", "as u32")));
        assert!(arith.contains(&("safe", "")));
    }

    #[test]
    fn spans_slice_back_to_fn_text() {
        let src = "fn a() { b() }\n\nimpl X { fn c(&self) -> u32 { 1 } }\n";
        let ast = parse_src(src);
        for f in &ast.fns {
            let text = &src[f.span.lo..f.span.hi];
            assert!(text.starts_with("fn"), "span must start at fn: {text:?}");
            assert!(text.contains(&f.name));
        }
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let ast = parse_src(
            "impl<'a, T: Iterator<Item = u32>> Wrap<'a, T> where T: Clone {\n\
                 fn go<F>(&self, f: F) -> Vec<u32> where F: Fn(u32) -> u32 { walk() }\n\
             }",
        );
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].impl_type, "Wrap");
        assert_eq!(ast.fns[0].calls.len(), 1);
        assert_eq!(ast.fns[0].calls[0].name, "walk");
    }

    #[test]
    fn hostile_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "impl",
            "impl {",
            "use ;",
            "}}}}",
            "fn f(",
            "impl < for { fn }",
            "mod {",
            "fn f() { ( }",
            "# [ fn",
            "#[cfg(",
            "#![",
            "#[test] fn",
            "#[cfg(test)] mod m {",
            "use a::{b",
            "fn f() { x.lock(",
        ] {
            let _ = parse_src(src);
        }
    }
}
