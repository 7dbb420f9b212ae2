//! A lightweight, parse-tolerant Rust-subset *item* parser layered on
//! [`crate::lexer`]'s token stream.
//!
//! It recovers exactly the structure the scope-aware rules need and no
//! more: the module tree, `use` declarations, `fn` items with
//! brace-matched body spans, `struct` definitions, and `impl`/`trait`
//! blocks with their nested items.
//! `#[test]` / `#[cfg(test)]` markers propagate down the tree, so a
//! rule can ask any item "are you test-only?" without re-scanning
//! attributes.
//!
//! **Tolerance contract:** this is not a validator. Anything the parser
//! does not recognize degrades to single-token skipping (`ItemKind::`
//! absent — the tokens simply belong to no item), and malformed input
//! (unbalanced braces, truncated files) produces a best-effort tree,
//! never an error. The compiler is the authority on well-formedness;
//! rules must stay useful on code that is mid-edit.

use crate::lexer::{Tok, TokKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Mod,
    Fn,
    Struct,
    Enum,
    Impl,
    Trait,
    Use,
    /// `const` / `static` / `type` / `macro_rules!` — recognized enough
    /// to skip coherently, not analyzed further.
    Other,
}

/// One parsed item. Token indices refer to the token slice the file was
/// parsed from.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name (`fn`/`struct`/`enum`/`mod`/`trait` name; for `impl`
    /// blocks the self-type's last path segment; empty if unnamed).
    pub name: String,
    pub line: u32,
    /// Token range `[start, end)` covering the whole item.
    pub span: (usize, usize),
    /// Token range `[open, close]` of the brace-matched `{ … }` body,
    /// braces included. `None` for `;`-terminated items.
    pub body: Option<(usize, usize)>,
    /// Nested items (`mod`/`impl`/`trait` bodies).
    pub children: Vec<Item>,
    /// Annotated `#[test]` / `#[cfg(test)]`, or nested inside an item
    /// that is.
    pub is_test: bool,
    /// For `use` items: the imported path, space-joined.
    pub use_path: String,
}

impl Item {
    /// Depth-first walk over this item and all descendants.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// Parse a token stream into a best-effort item tree.
pub fn parse(toks: &[Tok]) -> Vec<Item> {
    let mut p = Parser { toks };
    p.items(0, toks.len(), false)
}

/// All items of a tree, flattened depth-first.
pub fn flatten(items: &[Item]) -> Vec<&Item> {
    let mut out = Vec::new();
    for it in items {
        it.walk(&mut out);
    }
    out
}

struct Parser<'a> {
    toks: &'a [Tok],
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// Index just past the `]` closing an attribute starting at `#` (or
    /// `#!`) at `i`; `i + 1` if it isn't an attribute after all.
    fn skip_attr(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.text(j) == "!" {
            j += 1;
        }
        if self.text(j) != "[" {
            return i + 1;
        }
        let mut depth = 0usize;
        while j < self.toks.len() {
            match self.text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Is the attribute at `#` index `i` a `#[test]`-family marker?
    fn attr_is_test(&self, i: usize) -> bool {
        let end = self.skip_attr(i);
        let words: Vec<&str> = self.toks[i..end.min(self.toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        matches!(words.as_slice(), ["test"])
            || (words.first() == Some(&"cfg") && words.contains(&"test") && !words.contains(&"not"))
    }

    /// Index just past the `}` matching the `{` at `open` (or `end` if
    /// unbalanced).
    fn match_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < end {
            match self.text(j) {
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
        end
    }

    /// Scan from `i` for the first `{` or `;` at top level — angle
    /// brackets, parens and square brackets are skipped in matched
    /// groups, so `fn f<T: Fn(u8) -> u8>(x: [u8; 4]) -> Vec<u8>` finds
    /// its body brace, not one hiding in a generic bound.
    fn find_body_or_semi(&self, i: usize, end: usize) -> usize {
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut prev = "";
        let mut j = i;
        while j < end {
            match self.text(j) {
                "<" => angle += 1,
                ">" if prev == "-" || prev == "=" => {} // `->`, `=>`
                ">" if angle > 0 => angle -= 1,
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" | ";" if angle <= 0 && paren <= 0 => return j,
                _ => {}
            }
            prev = self.text(j);
            j += 1;
        }
        end
    }

    /// Parse items in `[i, end)`; `in_test` marks every produced item.
    fn items(&mut self, mut i: usize, end: usize, in_test: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while i < end {
            let start = i;
            // Attributes (outer and inner), collecting test-ness.
            let mut is_test = in_test;
            while self.text(i) == "#" && i < end {
                let next = self.skip_attr(i);
                if next == i + 1 {
                    break; // stray `#`, not an attribute
                }
                is_test |= self.attr_is_test(i);
                i = next;
            }
            // Visibility and leading modifiers.
            if self.is_ident(i, "pub") {
                i += 1;
                if self.text(i) == "(" {
                    while i < end && self.text(i) != ")" {
                        i += 1;
                    }
                    i += 1;
                }
            }
            while self.is_ident(i, "const")
                || self.is_ident(i, "async")
                || self.is_ident(i, "unsafe")
                || self.is_ident(i, "extern")
            {
                // `const` here is a modifier only when a `fn` follows;
                // a `const NAME: …` item is handled below.
                if self.is_ident(i, "const") && !self.is_ident(i + 1, "fn") {
                    break;
                }
                i += 1;
                if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Str) {
                    i += 1; // extern "C"
                }
            }
            if i >= end {
                break;
            }
            let kw = self.text(i).to_string();
            let parsed = match kw.as_str() {
                "mod" => Some(self.item_mod(start, i, end, is_test)),
                "fn" => Some(self.item_fn(start, i, end, is_test)),
                "struct" => Some(self.item_struct(start, i, end, is_test)),
                "enum" | "union" => Some(self.item_enum(start, i, end, is_test)),
                "impl" | "trait" => Some(self.item_impl(start, i, end, is_test, &kw)),
                "use" => Some(self.item_use(start, i, end, is_test)),
                "const" | "static" | "type" => Some(self.item_terminated(start, i, end, is_test)),
                "macro_rules" => Some(self.item_macro(start, i, end, is_test)),
                _ => None,
            };
            match parsed {
                Some(item) => {
                    i = item.span.1;
                    if i <= start {
                        i = start + 1; // guarantee progress
                    }
                    out.push(item);
                }
                None => i += 1, // tolerant skip
            }
        }
        out
    }

    fn mk(&self, kind: ItemKind, name: String, start: usize, end: usize, is_test: bool) -> Item {
        Item {
            kind,
            name,
            line: self.line(start),
            span: (start, end),
            body: None,
            children: Vec::new(),
            is_test,
            use_path: String::new(),
        }
    }

    fn item_mod(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let name = self.text(kw + 1).to_string();
        let mut item = self.mk(ItemKind::Mod, name, start, end, is_test);
        let at = self.find_body_or_semi(kw + 1, end);
        if self.text(at) == "{" {
            let close = self.match_brace(at, end);
            item.body = Some((at, close - 1));
            item.children = self.items(at + 1, close.saturating_sub(1), is_test);
            item.span = (start, close);
        } else {
            item.span = (start, (at + 1).min(end)); // `mod name;`
        }
        item
    }

    fn item_fn(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let name = self.text(kw + 1).to_string();
        let mut item = self.mk(ItemKind::Fn, name, start, end, is_test);
        let at = self.find_body_or_semi(kw + 1, end);
        if self.text(at) == "{" {
            let close = self.match_brace(at, end);
            item.body = Some((at, close - 1));
            item.span = (start, close);
        } else {
            item.span = (start, (at + 1).min(end)); // trait method decl
        }
        item
    }

    fn item_struct(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let name = self.text(kw + 1).to_string();
        let mut item = self.mk(ItemKind::Struct, name, start, end, is_test);
        let at = self.find_body_or_semi(kw + 1, end);
        if self.text(at) == "{" {
            let close = self.match_brace(at, end);
            item.body = Some((at, close - 1));
            item.span = (start, close);
        } else {
            // Tuple struct: `find_body_or_semi` already skipped the
            // parenthesized field list to the trailing `;`. Unit
            // structs land on the `;` directly.
            item.span = (start, (at + 1).min(end));
        }
        item
    }

    fn item_enum(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let name = self.text(kw + 1).to_string();
        let mut item = self.mk(ItemKind::Enum, name, start, end, is_test);
        let at = self.find_body_or_semi(kw + 1, end);
        if self.text(at) == "{" {
            let close = self.match_brace(at, end);
            item.body = Some((at, close - 1));
            item.span = (start, close);
        } else {
            item.span = (start, (at + 1).min(end));
        }
        item
    }

    fn item_impl(
        &mut self,
        start: usize,
        kw: usize,
        end: usize,
        is_test: bool,
        kind: &str,
    ) -> Item {
        let at = self.find_body_or_semi(kw + 1, end);
        // Self-type: last angle-depth-0 ident before the body (or the
        // `where` clause), skipping `for`/`dyn` — generic parameters
        // like the `T`s of `impl<T> Wrapper<T>` sit at depth > 0.
        let mut name = String::new();
        let mut angle = 0i32;
        let mut prev = "";
        for t in &self.toks[kw + 1..at.min(self.toks.len())] {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" if prev == "-" || prev == "=" => {}
                ">" if angle > 0 => angle -= 1,
                "where" if angle == 0 => break,
                _ if angle == 0
                    && t.kind == TokKind::Ident
                    && t.text != "for"
                    && t.text != "dyn" =>
                {
                    name = t.text.clone();
                }
                _ => {}
            }
            prev = t.text.as_str();
        }
        let kind = if kind == "trait" {
            ItemKind::Trait
        } else {
            ItemKind::Impl
        };
        let mut item = self.mk(kind, name, start, end, is_test);
        if self.text(at) == "{" {
            let close = self.match_brace(at, end);
            item.body = Some((at, close - 1));
            item.children = self.items(at + 1, close.saturating_sub(1), is_test);
            item.span = (start, close);
        } else {
            item.span = (start, (at + 1).min(end));
        }
        item
    }

    fn item_use(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let mut j = kw + 1;
        let mut path = String::new();
        while j < end && self.text(j) != ";" {
            if !path.is_empty() {
                path.push(' ');
            }
            path.push_str(self.text(j));
            j += 1;
        }
        let mut item = self.mk(
            ItemKind::Use,
            String::new(),
            start,
            (j + 1).min(end),
            is_test,
        );
        item.use_path = path;
        item
    }

    /// `const` / `static` / `type`: skip to the `;` terminating the
    /// item, stepping over any brace-matched initializer block.
    fn item_terminated(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        let name = self.text(kw + 1).to_string();
        let mut j = kw + 1;
        while j < end {
            match self.text(j) {
                "{" => j = self.match_brace(j, end),
                ";" => {
                    j += 1;
                    break;
                }
                _ => j += 1,
            }
        }
        self.mk(ItemKind::Other, name, start, j.min(end), is_test)
    }

    fn item_macro(&mut self, start: usize, kw: usize, end: usize, is_test: bool) -> Item {
        // macro_rules! name { … }
        let name = self.text(kw + 2).to_string();
        let at = self.find_body_or_semi(kw + 1, end);
        let close = if self.text(at) == "{" {
            self.match_brace(at, end)
        } else {
            (at + 1).min(end)
        };
        self.mk(ItemKind::Other, name, start, close, is_test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<Item> {
        parse(&lex(src))
    }

    fn find<'a>(items: &'a [Item], name: &str) -> &'a Item {
        flatten(items)
            .into_iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no item named {name}"))
    }

    #[test]
    fn parses_module_tree_and_fns() {
        let src = r#"
            mod outer {
                pub mod inner {
                    pub fn leaf(x: u32) -> u32 { x + 1 }
                }
                fn sibling() {}
            }
            fn top() { let a = 1; }
        "#;
        let items = parse_src(src);
        assert_eq!(items.len(), 2);
        let outer = find(&items, "outer");
        assert_eq!(outer.kind, ItemKind::Mod);
        assert_eq!(outer.children.len(), 2);
        let leaf = find(&items, "leaf");
        assert_eq!(leaf.kind, ItemKind::Fn);
        assert!(leaf.body.is_some());
        let top = find(&items, "top");
        assert!(top.body.is_some());
    }

    #[test]
    fn fn_body_span_is_brace_matched() {
        let src = "fn f() { if a { b(); } else { c(); } } fn g() {}";
        let items = parse_src(src);
        assert_eq!(items.len(), 2);
        let toks = lex(src);
        let (open, close) = items[0].body.expect("f has a body");
        assert_eq!(toks[open].text, "{");
        assert_eq!(toks[close].text, "}");
        // g's body must start after f's span.
        assert!(items[1].span.0 >= items[0].span.1);
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_body_finding() {
        let src = r#"
            fn f<T: Fn(u8) -> u8, const N: usize>(x: [u8; N]) -> Vec<u8>
            where
                T: Clone,
            {
                x.to_vec()
            }
        "#;
        let items = parse_src(src);
        assert_eq!(items.len(), 1, "{items:?}");
        assert_eq!(items[0].name, "f");
        assert!(items[0].body.is_some());
    }

    #[test]
    fn impl_blocks_nest_their_fns() {
        let src = r#"
            impl<T> Wrapper<T> {
                pub fn get(&self) -> &T { &self.0 }
                fn set(&mut self, v: T) { self.0 = v; }
            }
            impl Display for Wrapper<u8> { fn fmt(&self) {} }
            trait Walk { fn step(&self); fn run(&self) { self.step(); } }
        "#;
        let items = parse_src(src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Wrapper");
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[1].name, "Wrapper");
        let tr = &items[2];
        assert_eq!(tr.kind, ItemKind::Trait);
        assert_eq!(tr.children.len(), 2);
        assert!(tr.children[0].body.is_none(), "decl has no body");
        assert!(tr.children[1].body.is_some());
    }

    #[test]
    fn test_markers_propagate() {
        let src = r#"
            fn prod() {}
            #[test]
            fn unit() { prod(); }
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
            #[cfg(not(test))]
            fn also_prod() {}
        "#;
        let items = parse_src(src);
        assert!(!find(&items, "prod").is_test);
        assert!(find(&items, "unit").is_test);
        assert!(find(&items, "helper").is_test, "nested in cfg(test) mod");
        assert!(find(&items, "t").is_test);
        assert!(!find(&items, "also_prod").is_test);
    }

    #[test]
    fn use_declarations_keep_their_paths() {
        let items = parse_src("use std::collections::{HashMap, HashSet};\nuse crate::x as y;");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Use);
        assert!(items[0].use_path.contains("HashMap"));
        assert!(items[1].use_path.contains("as y"));
    }

    #[test]
    fn tolerant_on_garbage_and_truncation() {
        // Unbalanced braces, stray tokens, truncated fn: no panic, and
        // recognizable items still surface.
        for src in [
            "fn ok() {} ??? @@@ fn also_ok() {}",
            "fn truncated(x: u32",
            "struct Dangling {",
            "impl {", // impl with nothing
            "} } }",
            "",
        ] {
            let _ = parse_src(src); // must not panic
        }
        let items = parse_src("fn ok() {} ??? fn also_ok() {}");
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["ok", "also_ok"]);
    }

    #[test]
    fn const_static_and_macros_are_skipped_coherently() {
        let src = r#"
            const TABLE: [u32; 2] = { [1, 2] };
            static NAME: &str = "x";
            type Alias = Vec<u32>;
            macro_rules! mk { () => {}; }
            fn after() {}
        "#;
        let items = parse_src(src);
        assert_eq!(items.last().map(|i| i.name.as_str()), Some("after"));
        assert!(items.last().is_some_and(|i| i.body.is_some()));
    }
}
