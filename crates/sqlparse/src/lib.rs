//! # qb-sqlparse
//!
//! A self-contained SQL lexer, parser, and canonical formatter for the DML
//! subset that the QB5000 traces exercise (`SELECT` / `INSERT` / `UPDATE` /
//! `DELETE`, joins, grouping, ordering, nested predicates, batched inserts).
//!
//! Two QB5000 components sit on top of this crate:
//!
//! * the **Pre-Processor** (`qb-preprocessor`) walks the AST to strip
//!   constants into placeholders, producing the query *templates* of §4, and
//!   uses the canonical formatter to normalize spacing/case/parentheses;
//! * the **dbsim engine** (`qb-dbsim`) evaluates parsed predicates against
//!   its stored tables for the index-selection experiment (§7.6).
//!
//! The parser is a hand-written recursive-descent parser with precedence
//! climbing for expressions. It is deliberately strict: anything outside the
//! supported grammar produces a [`ParseError`] with the offending position,
//! mirroring how QB5000 skips statements its template extractor cannot
//! understand.

#![forbid(unsafe_code)]

pub mod ast;
pub mod format;
pub mod lexer;
pub mod parser;

pub use ast::{
    Assignment, BinaryOp, DeleteStatement, Expr, InsertStatement, JoinClause, JoinKind, Literal,
    OrderByItem, OrderDirection, SelectItem, SelectStatement, Statement, TableRef, UnaryOp,
    UpdateStatement,
};
pub use format::format_statement;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_statement, ParseError, Parser};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_parse_and_format() {
        let sql = "select  A.x ,  b.y from  a join b ON a.id = b.id where a.x > 5";
        let stmt = parse_statement(sql).unwrap();
        let formatted = format_statement(&stmt);
        // Formatting is canonical: re-parsing yields an identical AST.
        let stmt2 = parse_statement(&formatted).unwrap();
        assert_eq!(stmt, stmt2);
    }
}
