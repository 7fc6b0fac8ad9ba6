//! Per-file item extraction: the symbol layer of the workspace facts.
//!
//! This module turns one tokenized [`SourceFile`] into a list of items —
//! functions (with approximate signature, body range and outgoing
//! calls), type declarations, inline modules, and crate references —
//! without ever building an AST. The extraction is *approximate by
//! design*: it resolves what a token-window pass can resolve soundly
//! (names, brace-matched body ranges, call sites by callee name) and
//! deliberately leaves the rest (trait method dispatch, closures,
//! function pointers) unresolved. See the crate docs for the full
//! contract of what the symbol graph does and does not see.

use crate::source::SourceFile;

/// One call site inside a function body: the callee *name* only —
/// `helper(..)`, `recv.method(..)` and `Type::assoc(..)` all record
/// just the final identifier. Macros (`name!(..)`) are excluded: the
/// `!` between name and `(` breaks the adjacency this scanner needs.
#[derive(Debug, Clone)]
pub struct Call {
    /// The callee identifier.
    pub name: String,
    /// Code-index of the callee token.
    pub ci: usize,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One `fn` item: enough signature and body structure for the
/// flow-aware rules to reason about reachability and containment.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name (raw identifiers keep their `r#`).
    pub name: String,
    /// `module::Impl::name` — display-qualified for the DOT graph.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (any visibility restriction counts: `pub(crate)`
    /// is public enough to be an entry point for intra-workspace flow).
    pub is_pub: bool,
    /// Code-index range `[fn .. body-open]` (the signature window).
    pub sig: (usize, usize),
    /// Code-index range of the body braces, inclusive; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// The return-type tokens after `->`, if any.
    pub ret: Vec<String>,
    /// Call sites inside the body (nested items included — an
    /// over-approximation that is safe for reachability analysis).
    pub calls: Vec<Call>,
}

impl FnItem {
    /// Does the return type mention `name` as a token? (`Detection`,
    /// `Result<Detection, E>` and `(Detection, usize)` all match.)
    pub fn returns(&self, name: &str) -> bool {
        self.ret.iter().any(|t| t == name)
    }

    /// Does the body (or signature) contain a call to `name`?
    pub fn calls_fn(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c.name == name)
    }
}

/// A `struct`/`enum`/`trait` declaration (name + location, for the
/// module tree in the DOT artifact).
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// `struct`, `enum` or `trait`.
    pub kind: &'static str,
    /// The declared name.
    pub name: String,
    /// 1-based line of the keyword.
    pub line: u32,
}

/// A reference to another workspace crate (or vendored compat crate):
/// an identifier shaped like a crate name immediately followed by `::`,
/// in code or in a `use` statement.
#[derive(Debug, Clone)]
pub struct CrateRef {
    /// The referenced crate (`dcd_core`, `rand`, …).
    pub name: String,
    /// Code-index of the reference.
    pub ci: usize,
    /// 1-based line.
    pub line: u32,
}

/// Everything the indexer extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// The owning crate, derived from the path (`dcd_core` for
    /// `crates/core/**`, `root` for the root package, `compat` for the
    /// vendored stand-ins).
    pub krate: String,
    /// Module path for display: `dcd_core::runner`.
    pub module: String,
    /// Extracted functions, in source order.
    pub fns: Vec<FnItem>,
    /// Extracted type declarations.
    pub types: Vec<TypeItem>,
    /// Inline `mod name { .. }` declarations.
    pub mods: Vec<String>,
    /// Crate-shaped references (see [`CrateRef`]).
    pub crate_refs: Vec<CrateRef>,
}

/// Identifiers that look like calls but are control flow or item syntax.
const NON_CALL_KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "mut",
    "fn", "impl", "where", "unsafe", "let", "pub", "use", "mod", "break", "continue", "dyn",
    "await",
];

/// The vendored compat crates a workspace crate may name besides
/// `dcd_*` (everything else — `std`, `core`, `alloc` — is outside the
/// layering contract).
pub const EXTERNAL_CRATES: [&str; 3] = ["rand", "proptest", "criterion"];

/// Derives `(crate, module)` display names from a workspace-relative
/// path. `crates/core/src/runner.rs` → `("dcd_core", "dcd_core::runner")`.
pub fn module_path(path: &str) -> (String, String) {
    let parts: Vec<&str> = path.split('/').collect();
    let (krate, rest) = match parts.as_slice() {
        ["crates", "compat", name, rest @ ..] => (format!("compat_{name}"), rest),
        ["crates", name, rest @ ..] => (format!("dcd_{}", name.replace('-', "_")), rest),
        rest => ("root".to_string(), rest),
    };
    let mut module = krate.clone();
    for seg in rest {
        if *seg == "src" {
            continue;
        }
        let seg = seg.trim_end_matches(".rs");
        if seg == "lib" || seg == "main" || seg == "mod" {
            continue;
        }
        module.push_str("::");
        module.push_str(seg);
    }
    (krate, module)
}

/// Extracts all items from one file. One linear scan with an
/// impl/mod context stack; every range comes from brace matching on
/// the code-token stream.
pub fn extract(file: &SourceFile) -> FileItems {
    let (krate, module) = module_path(&file.path);
    let mut out = FileItems { krate, module, ..FileItems::default() };
    let n = file.code.len();

    // Context stack: enclosing `impl Type` / `mod name` blocks, as
    // (display name, body close ci).
    let mut ctx: Vec<(String, usize)> = Vec::new();

    let mut ci = 0usize;
    while ci < n {
        while let Some(&(_, close)) = ctx.last() {
            if ci > close {
                ctx.pop();
            } else {
                break;
            }
        }
        match file.text(ci) {
            "impl" => {
                if let Some((name, open)) = impl_header(file, ci) {
                    ctx.push((name, file.matching_brace(open)));
                }
                ci += 1;
            }
            "mod" if is_ident(file.text(ci + 1)) && file.text(ci + 2) == "{" => {
                let name = file.text(ci + 1).to_string();
                out.mods.push(name.clone());
                ctx.push((name, file.matching_brace(ci + 2)));
                ci += 3;
            }
            kw @ ("struct" | "enum" | "trait") if is_ident(file.text(ci + 1)) => {
                // `impl Trait for T` never reaches here (`impl` is
                // consumed above); `dyn Trait` has no `trait` keyword.
                let kind = match kw {
                    "struct" => "struct",
                    "enum" => "enum",
                    _ => "trait",
                };
                out.types.push(TypeItem {
                    kind,
                    name: file.text(ci + 1).to_string(),
                    line: file.ct(ci).line,
                });
                ci += 2;
            }
            "fn" if is_ident(file.text(ci + 1)) => {
                let item = fn_item(file, ci, &ctx, &out.module);
                // The jump below skips the signature tokens; crate-shaped
                // references in parameter and return types still count.
                for w in item.sig.0..item.sig.1 {
                    let t = file.text(w);
                    if is_crate_name(t) && file.text(w + 1) == "::" {
                        out.crate_refs.push(CrateRef {
                            name: t.to_string(),
                            ci: w,
                            line: file.ct(w).line,
                        });
                    }
                }
                let next = item.body.map_or(item.sig.1 + 1, |(open, _)| open + 1);
                out.fns.push(item);
                // Descend *into* the body so nested fns/mods are seen.
                ci = next;
            }
            t if is_crate_name(t) && file.text(ci + 1) == "::" => {
                out.crate_refs.push(CrateRef { name: t.to_string(), ci, line: file.ct(ci).line });
                ci += 2;
            }
            _ => ci += 1,
        }
    }
    out
}

fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_crate_name(t: &str) -> bool {
    (t.starts_with("dcd_") && t.len() > 4) || EXTERNAL_CRATES.contains(&t)
}

/// Parses the `impl .. {` header starting at `ci` (the `impl` token):
/// returns the display name of the implemented type and the ci of the
/// body `{`. Generics are skipped at angle-depth; `impl Trait for Type`
/// names `Type`.
fn impl_header(file: &SourceFile, ci: usize) -> Option<(String, usize)> {
    let n = file.code.len();
    let mut j = ci + 1;
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    while j < n {
        match file.text(j) {
            "{" if angle <= 0 => {
                return name.map(|nm| (nm, j));
            }
            ";" => return None, // `impl Trait for T;` — no body
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle <= 0 => name = None, // the type follows
            t if angle <= 0 && is_ident(t) && name.is_none() && t != "dyn" && t != "where" => {
                name = Some(t.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` item starting at `ci` (the `fn` token).
fn fn_item(file: &SourceFile, ci: usize, ctx: &[(String, usize)], module: &str) -> FnItem {
    let n = file.code.len();
    let name = file.text(ci + 1).to_string();
    let is_pub = leading_pub(file, ci);

    // Parameter list: the first `(` after the name, skipping generics.
    let mut j = ci + 2;
    let mut angle = 0i32;
    while j < n {
        match file.text(j) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" if angle <= 0 => break,
            "{" | ";" => break, // malformed; bail to body scan below
            _ => {}
        }
        j += 1;
    }
    if file.text(j) == "(" {
        let mut d = 0i32;
        while j < n {
            match file.text(j) {
                "(" => d += 1,
                ")" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }

    // Return type: tokens between `->` and the body/semicolon.
    let mut ret = Vec::new();
    let mut k = j + 1;
    if file.text(k) == "-" && file.text(k + 1) == ">" {
        k += 2;
        while k < n && !matches!(file.text(k), "{" | ";" | "where") {
            ret.push(file.text(k).to_string());
            k += 1;
        }
    }
    // Skip a `where` clause to the body.
    while k < n && !matches!(file.text(k), "{" | ";") {
        k += 1;
    }

    let (body, sig_end) =
        if file.text(k) == "{" { (Some((k, file.matching_brace(k))), k) } else { (None, k) };

    let mut calls = Vec::new();
    if let Some((open, close)) = body {
        for w in open..=close.min(n.saturating_sub(1)) {
            let t = file.text(w);
            if is_ident(t)
                && file.text(w + 1) == "("
                && !NON_CALL_KEYWORDS.contains(&t)
                && file.text(w.wrapping_sub(1)) != "fn"
            {
                calls.push(Call { name: t.to_string(), ci: w, line: file.ct(w).line });
            }
        }
    }

    let mut qual = module.to_string();
    for (c, _) in ctx {
        qual.push_str("::");
        qual.push_str(c);
    }
    qual.push_str("::");
    qual.push_str(&name);

    FnItem { name, qual, line: file.ct(ci).line, is_pub, sig: (ci, sig_end), body, ret, calls }
}

/// Is the `fn` at `ci` preceded by a `pub` (possibly restricted, and
/// possibly with `const`/`async`/`unsafe`/`extern "C"` qualifiers in
/// between)?
fn leading_pub(file: &SourceFile, ci: usize) -> bool {
    let mut j = ci;
    for _ in 0..8 {
        if j == 0 {
            return false;
        }
        j -= 1;
        match file.text(j) {
            "pub" => return true,
            ")" | "(" | "crate" | "super" | "in" | "self" | "const" | "async" | "unsafe"
            | "extern" => continue,
            t if t.starts_with('"') => continue, // extern "C"
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileClass, SourceFile};

    fn items(path: &str, src: &str) -> FileItems {
        extract(&SourceFile::parse(path.into(), FileClass::Engine, src))
    }

    #[test]
    fn module_paths_derive_from_layout() {
        assert_eq!(module_path("crates/core/src/runner.rs").1, "dcd_core::runner");
        assert_eq!(module_path("crates/core/src/lib.rs").1, "dcd_core");
        assert_eq!(module_path("src/api.rs"), ("root".into(), "root::api".into()));
        assert_eq!(module_path("crates/compat/rand/src/lib.rs").0, "compat_rand");
    }

    #[test]
    fn fn_extraction_sees_name_visibility_ret_and_calls() {
        let f = items(
            "crates/core/src/x.rs",
            "pub fn run_one(a: u32) -> Result<Detection, Error> {\n    helper(a);\n    a.method(1)\n}\nfn helper(a: u32) {}\n",
        );
        assert_eq!(f.fns.len(), 2);
        let run = &f.fns[0];
        assert_eq!(run.name, "run_one");
        assert!(run.is_pub);
        assert!(run.returns("Detection"));
        assert!(run.calls_fn("helper"));
        assert!(run.calls_fn("method"));
        assert!(!f.fns[1].is_pub);
    }

    #[test]
    fn impl_context_qualifies_methods() {
        let f = items(
            "crates/core/src/x.rs",
            "impl Display for Runner {\n    fn fmt(&self) -> Out { go() }\n}\nimpl<T> Wrap<T> {\n    pub(crate) fn new() -> Self { Self {} }\n}\n",
        );
        assert_eq!(f.fns[0].qual, "dcd_core::x::Runner::fmt");
        assert_eq!(f.fns[1].qual, "dcd_core::x::Wrap::new");
        assert!(f.fns[1].is_pub, "pub(crate) counts as public");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let f = items(
            "crates/core/src/x.rs",
            "fn f(x: u32) -> u32 {\n    if (x > 0) { format!(\"{x}\") ; }\n    while (x > 1) {}\n    real(x)\n}\n",
        );
        let names: Vec<&str> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(!names.contains(&"if"));
        assert!(!names.contains(&"while"));
        assert!(!names.contains(&"format"));
        assert!(names.contains(&"real"));
    }

    #[test]
    fn crate_refs_require_path_position() {
        let f = items(
            "crates/vertical/src/x.rs",
            "use dcd_cfd::Cfd;\nfn f(c: &dcd_core::Cfg) { let rand = 3; let _ = rand + 1; dcd_relation::decode(); }\n",
        );
        let names: Vec<&str> = f.crate_refs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["dcd_cfd", "dcd_core", "dcd_relation"],
            "signature types count; a bare `rand` binding is not a crate ref"
        );
    }

    #[test]
    fn nested_mod_and_types_are_recorded() {
        let f = items(
            "crates/core/src/x.rs",
            "pub struct A;\nmod inner {\n    pub enum B { X }\n    fn g() {}\n}\ntrait C {}\n",
        );
        assert_eq!(f.mods, ["inner"]);
        let kinds: Vec<(&str, &str)> = f.types.iter().map(|t| (t.kind, t.name.as_str())).collect();
        assert_eq!(kinds, [("struct", "A"), ("enum", "B"), ("trait", "C")]);
        assert_eq!(f.fns[0].qual, "dcd_core::x::inner::g");
    }
}
