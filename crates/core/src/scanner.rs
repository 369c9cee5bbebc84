//! A minimal CUDA-source scanner (the prototype's FLEX stage, §IV-B).
//!
//! The Slate daemon receives user device code as text and must locate
//! `__global__` kernel definitions and every use of the built-in variables
//! `blockIdx` and `gridDim` so the injector can rewrite them. This module
//! is a hand-rolled lexer with just enough C++ awareness to do that
//! robustly: it skips string/char literals and both comment styles, tracks
//! brace depth to find function bodies, and tokenises identifiers so
//! `myblockIdx` is not mistaken for `blockIdx`.

/// A located token of interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub(crate) start: usize,
    /// Byte offset one past the last character.
    pub(crate) end: usize,
}

impl Span {
    /// The spanned text.
    pub(crate) fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// A `__global__` kernel found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDef {
    /// Kernel name.
    pub(crate) name: String,
    /// Span of the name identifier.
    pub(crate) name_span: Span,
    /// Span of the parameter list, excluding the parentheses.
    pub(crate) params_span: Span,
    /// Span of the body, excluding the outer braces.
    pub(crate) body_span: Span,
    /// Spans of `blockIdx` identifiers inside the body.
    pub block_idx_uses: Vec<Span>,
    /// Spans of `gridDim` identifiers inside the body.
    pub grid_dim_uses: Vec<Span>,
}

/// Lexer over raw source bytes.
struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(Span),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Other,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Skips whitespace, comments and literals; returns the next token.
    fn next(&mut self) -> Option<(usize, Tok)> {
        loop {
            let b = *self.src.get(self.pos)?;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.src.get(self.pos + 1) == Some(&b'*') => {
                    self.pos += 2;
                    while self.pos + 1 < self.src.len()
                        && !(self.src[self.pos] == b'*' && self.src[self.pos + 1] == b'/')
                    {
                        self.pos += 1;
                    }
                    self.pos = (self.pos + 2).min(self.src.len());
                }
                b'"' | b'\'' => {
                    let quote = b;
                    self.pos += 1;
                    while self.pos < self.src.len() && self.src[self.pos] != quote {
                        if self.src[self.pos] == b'\\' {
                            self.pos += 1;
                        }
                        self.pos += 1;
                    }
                    self.pos = (self.pos + 1).min(self.src.len());
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let start = self.pos;
                    while self
                        .pos
                        .checked_sub(0)
                        .and_then(|p| self.src.get(p))
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                    {
                        self.pos += 1;
                    }
                    return Some((
                        start,
                        Tok::Ident(Span {
                            start,
                            end: self.pos,
                        }),
                    ));
                }
                b'(' => {
                    self.pos += 1;
                    return Some((self.pos - 1, Tok::LParen));
                }
                b')' => {
                    self.pos += 1;
                    return Some((self.pos - 1, Tok::RParen));
                }
                b'{' => {
                    self.pos += 1;
                    return Some((self.pos - 1, Tok::LBrace));
                }
                b'}' => {
                    self.pos += 1;
                    return Some((self.pos - 1, Tok::RBrace));
                }
                _ => {
                    self.pos += 1;
                    return Some((self.pos - 1, Tok::Other));
                }
            }
        }
    }
}

/// Scans `src` for `__global__` kernel definitions.
pub fn scan_kernels(src: &str) -> Vec<KernelDef> {
    let mut lex = Lexer::new(src);
    let mut toks: Vec<(usize, Tok)> = Vec::new();
    while let Some(t) = lex.next() {
        toks.push(t);
    }

    let mut kernels = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_global = matches!(&toks[i].1, Tok::Ident(s) if s.text(src) == "__global__");
        if !is_global {
            i += 1;
            continue;
        }
        // Find the kernel name: the last identifier before the '('.
        let mut j = i + 1;
        let mut name: Option<Span> = None;
        while j < toks.len() {
            match &toks[j].1 {
                Tok::Ident(s) => name = Some(s.clone()),
                Tok::LParen => break,
                _ => {}
            }
            j += 1;
        }
        let (Some(name_span), true) = (name, j < toks.len()) else {
            i += 1;
            continue;
        };
        // Parameter list: up to the matching ')'.
        let lparen = toks[j].0;
        let mut depth = 1;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            match toks[k].1 {
                Tok::LParen => depth += 1,
                Tok::RParen => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        if depth != 0 {
            break; // unbalanced; stop scanning
        }
        let rparen = toks[k - 1].0;
        // Body: next '{' to its matching '}'. A ';' before the '{' means
        // this was only a declaration.
        let mut b = k;
        let mut declaration = false;
        while b < toks.len() && toks[b].1 != Tok::LBrace {
            if toks[b].1 == Tok::Other && src.as_bytes().get(toks[b].0) == Some(&b';') {
                declaration = true;
                break;
            }
            b += 1;
        }
        if declaration || b == toks.len() {
            i = k;
            continue; // declaration without body
        }
        let lbrace = toks[b].0;
        let mut bdepth = 1;
        let mut e = b + 1;
        let mut block_idx_uses = Vec::new();
        let mut grid_dim_uses = Vec::new();
        while e < toks.len() && bdepth > 0 {
            match &toks[e].1 {
                Tok::LBrace => bdepth += 1,
                Tok::RBrace => bdepth -= 1,
                Tok::Ident(s) => match s.text(src) {
                    "blockIdx" => block_idx_uses.push(s.clone()),
                    "gridDim" => grid_dim_uses.push(s.clone()),
                    _ => {}
                },
                _ => {}
            }
            e += 1;
        }
        if bdepth != 0 {
            break;
        }
        let rbrace = toks[e - 1].0;
        kernels.push(KernelDef {
            name: name_span.text(src).to_string(),
            name_span,
            params_span: Span {
                start: lparen + 1,
                end: rparen,
            },
            body_span: Span {
                start: lbrace + 1,
                end: rbrace,
            },
            block_idx_uses,
            grid_dim_uses,
        });
        i = e;
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
#include <cuda.h>
// a host helper mentioning blockIdx in a comment
static int helper(int x) { return x + 1; }

__global__ void scale(float* out, const float* in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = in[i] * 2.0f; // blockIdx in comment again
}

__global__ void
tile_kernel (float *a) {
    int bx = blockIdx.x, by = blockIdx.y;
    int w = gridDim.x;
    const char* s = "gridDim inside a string";
    a[by * w + bx] = 0.f;
}

__device__ int not_a_kernel(int blockIdxLike) { return blockIdxLike; }
"#;

    #[test]
    fn finds_both_kernels() {
        let ks = scan_kernels(SRC);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "scale");
        assert_eq!(ks[1].name, "tile_kernel");
    }

    #[test]
    fn counts_builtin_uses_in_bodies_only() {
        let ks = scan_kernels(SRC);
        assert_eq!(ks[0].block_idx_uses.len(), 1, "comment mention ignored");
        assert_eq!(ks[0].grid_dim_uses.len(), 0);
        assert_eq!(ks[1].block_idx_uses.len(), 2);
        assert_eq!(ks[1].grid_dim_uses.len(), 1, "string literal ignored");
    }

    #[test]
    fn spans_point_at_the_identifiers() {
        let ks = scan_kernels(SRC);
        for s in &ks[1].block_idx_uses {
            assert_eq!(s.text(SRC), "blockIdx");
        }
        assert_eq!(ks[1].grid_dim_uses[0].text(SRC), "gridDim");
    }

    #[test]
    fn params_and_body_spans_are_well_formed() {
        let ks = scan_kernels(SRC);
        let p = ks[0].params_span.text(SRC);
        assert!(p.contains("float* out") && p.contains("int n"));
        let b = ks[0].body_span.text(SRC);
        assert!(b.contains("out[i] = in[i]"));
        assert!(!b.contains('}'), "outer braces excluded: {b}");
    }

    #[test]
    fn similar_identifiers_not_confused() {
        let ks = scan_kernels(SRC);
        // not_a_kernel is __device__, and blockIdxLike is not blockIdx.
        assert!(ks.iter().all(|k| k.name != "not_a_kernel"));
    }

    #[test]
    fn declaration_without_body_is_skipped() {
        let src = "__global__ void fwd(int x);\n__global__ void real(int x) { blockIdx.x; }";
        let ks = scan_kernels(src);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].name, "real");
    }

    #[test]
    fn nested_braces_in_body() {
        let src = "__global__ void k() { if (1) { for(;;) { blockIdx.x; } } int z; }";
        let ks = scan_kernels(src);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].block_idx_uses.len(), 1);
        assert!(ks[0].body_span.text(src).contains("int z"));
    }

    #[test]
    fn empty_source() {
        assert!(scan_kernels("").is_empty());
        assert!(scan_kernels("int main() { return 0; }").is_empty());
    }
}
