//! S-expression trees over the WAT token stream.
//!
//! Everything in the text format — modules, instructions, and the wast
//! assertion scripts the `conform` crate layers on top — is an s-expression,
//! so this parser is shared between the module frontend and the conformance
//! script runner.

use super::lexer::{tokenize, Token};
use super::WatError;

/// One node of the s-expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sexpr {
    /// A keyword, number, or `$identifier`.
    Atom {
        /// The atom text.
        text: String,
        /// Byte offset in the source.
        offset: usize,
    },
    /// A string literal as raw bytes.
    Str {
        /// The unescaped bytes.
        bytes: Vec<u8>,
        /// Byte offset in the source.
        offset: usize,
    },
    /// A parenthesized list.
    List {
        /// Child expressions.
        items: Vec<Sexpr>,
        /// Byte offset of the opening parenthesis.
        offset: usize,
    },
}

impl Sexpr {
    /// The source offset of this node.
    pub fn offset(&self) -> usize {
        match self {
            Sexpr::Atom { offset, .. } | Sexpr::Str { offset, .. } | Sexpr::List { offset, .. } => {
                *offset
            }
        }
    }

    /// The atom text, if this node is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Sexpr::Atom { text, .. } => Some(text),
            _ => None,
        }
    }

    /// The string bytes, if this node is a string literal.
    pub fn as_str_bytes(&self) -> Option<&[u8]> {
        match self {
            Sexpr::Str { bytes, .. } => Some(bytes),
            _ => None,
        }
    }

    /// The string contents as UTF-8, if this node is a valid-UTF-8 string.
    pub fn as_name(&self) -> Option<String> {
        self.as_str_bytes()
            .and_then(|b| String::from_utf8(b.to_vec()).ok())
    }

    /// The child list, if this node is a list.
    pub fn as_list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List { items, .. } => Some(items),
            _ => None,
        }
    }

    /// The leading keyword of a list (`(keyword ...)`), if any.
    pub fn keyword(&self) -> Option<&str> {
        self.as_list()?.first()?.as_atom()
    }
}

/// The deepest list nesting [`parse_all`] accepts. This parser, the lowering
/// of folded instructions, and `Drop` of the tree all recurse per level, so
/// the cap is what keeps hostile text from overflowing the host stack (an
/// abort, not a panic): no deeper tree is ever built. Measured in a debug
/// build on a 2 MiB thread, lowering nested `(block` — the hungriest shape,
/// about 4 KiB a level — overflows near 490 levels; the conformance corpus
/// nests 5 deep.
pub const MAX_NESTING: usize = 200;

/// Parses WAT source into its top-level s-expressions.
///
/// # Errors
///
/// Returns a [`WatError`] on lexical errors, unbalanced parentheses, or
/// lists nested deeper than [`MAX_NESTING`].
pub fn parse_all(src: &str) -> Result<Vec<Sexpr>, WatError> {
    let tokens = tokenize(src)?;
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < tokens.len() {
        let (expr, next) = parse_one(&tokens, pos, 0)?;
        out.push(expr);
        pos = next;
    }
    Ok(out)
}

/// Parses the expression at `tokens[pos]`, which sits inside `depth` lists.
fn parse_one(
    tokens: &[(Token, usize)],
    pos: usize,
    depth: usize,
) -> Result<(Sexpr, usize), WatError> {
    let (token, offset) = &tokens[pos];
    match token {
        Token::Atom(text) => Ok((
            Sexpr::Atom {
                text: text.clone(),
                offset: *offset,
            },
            pos + 1,
        )),
        Token::Str(bytes) => Ok((
            Sexpr::Str {
                bytes: bytes.clone(),
                offset: *offset,
            },
            pos + 1,
        )),
        Token::LParen => {
            if depth == MAX_NESTING {
                return Err(WatError::new(
                    format!("lists nested deeper than {MAX_NESTING}"),
                    *offset,
                ));
            }
            let mut items = Vec::new();
            let mut cur = pos + 1;
            loop {
                match tokens.get(cur) {
                    None => return Err(WatError::new("unclosed parenthesis", *offset)),
                    Some((Token::RParen, _)) => {
                        return Ok((
                            Sexpr::List {
                                items,
                                offset: *offset,
                            },
                            cur + 1,
                        ))
                    }
                    Some(_) => {
                        let (child, next) = parse_one(tokens, cur, depth + 1)?;
                        items.push(child);
                        cur = next;
                    }
                }
            }
        }
        Token::RParen => Err(WatError::new("unexpected `)`", *offset)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_lists() {
        let exprs = parse_all("(a (b 1) \"s\") c").unwrap();
        assert_eq!(exprs.len(), 2);
        assert_eq!(exprs[0].keyword(), Some("a"));
        let items = exprs[0].as_list().unwrap();
        assert_eq!(items[1].keyword(), Some("b"));
        assert_eq!(items[1].as_list().unwrap()[1].as_atom(), Some("1"));
        assert_eq!(items[2].as_name().as_deref(), Some("s"));
        assert_eq!(exprs[1].as_atom(), Some("c"));
    }

    #[test]
    fn unbalanced_is_rejected() {
        assert!(parse_all("(a (b)").is_err());
        assert!(parse_all(")").is_err());
    }
}
