//! Recursive-descent SQL parser.
//!
//! Grammar (see `docs/QUERY.md` for the full reference):
//!
//! ```text
//! query  := SELECT items FROM table_ref join* [WHERE expr]
//!           [GROUP BY expr_list] [ORDER BY order_list] [LIMIT int]
//! items  := '*' | item (',' item)*          item := expr [AS ident]
//! join   := [INNER] JOIN table_ref ON expr
//! expr   := or; or := and (OR and)*; and := not (AND not)*;
//! not    := NOT not | cmp; cmp := add [cmpop add];
//! add    := mul (('+'|'-') mul)*; mul := unary (('*'|'/') unary)*;
//! unary  := '-' unary | primary
//! primary:= literal | ident['.'ident] | ident '(' ('*'|expr) ')'
//!         | '(' expr ')'
//! ```
//!
//! Every error is a structured [`QueryError`] carrying the byte
//! offset of the offending token — the parser never panics, which the
//! property suite checks over arbitrary token soup.

use crate::error::{QueryError, QueryResult};
use crate::plan::{qualified, AggFunc, BinOp, Expr};
use crate::token::{tokenize, Keyword, Token, TokenKind};

/// One output column of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Base table name.
    pub table: String,
    /// Optional alias; qualification uses the alias when present.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name columns of this reference are qualified with.
    pub(crate) fn qualifier(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The `ON` condition (planner requires an equi-join
    /// `col = col`).
    pub on: Expr,
}

/// A parsed `SELECT` statement, unresolved.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `true` for `SELECT *` (then `items` is empty).
    pub star: bool,
    /// The select list.
    pub items: Vec<SelectItem>,
    /// The first `FROM` table.
    pub from: TableRef,
    /// Inner joins, in syntactic order.
    pub joins: Vec<JoinClause>,
    /// `WHERE` predicate.
    pub filter: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `ORDER BY` keys; `true` = descending.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT` row budget.
    pub limit: Option<usize>,
}

/// Parses SQL text into an AST.
pub fn parse(source: &str) -> QueryResult<Query> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: source.len(),
    };
    let query = parser.query()?;
    if let Some(tok) = parser.peek() {
        return Err(QueryError::Parse {
            offset: tok.offset,
            message: format!("unexpected trailing token {:?}", tok.kind),
        });
    }
    Ok(query)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<TokenKind<'a>> {
        self.peek().map(|t| t.kind)
    }

    fn offset(&self) -> usize {
        self.peek().map_or(self.end, |t| t.offset)
    }

    fn err<T>(&self, message: impl Into<String>) -> QueryResult<T> {
        Err(QueryError::Parse {
            offset: self.offset(),
            message: message.into(),
        })
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> QueryResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw:?}"))
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> QueryResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn ident(&mut self, what: &str) -> QueryResult<&'a str> {
        match self.peek_kind() {
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    fn query(&mut self) -> QueryResult<Query> {
        self.expect_keyword(Keyword::Select)?;
        let (star, items) = self.select_items()?;
        self.expect_keyword(Keyword::From)?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.eat_keyword(Keyword::Inner);
            if self.eat_keyword(Keyword::Join) {
                let table = self.table_ref()?;
                self.expect_keyword(Keyword::On)?;
                let on = self.expr()?;
                joins.push(JoinClause { table, on });
            } else if inner {
                return self.err("expected JOIN after INNER");
            } else {
                break;
            }
        }
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let key = self.expr()?;
                let desc = if self.eat_keyword(Keyword::Desc) {
                    true
                } else {
                    self.eat_keyword(Keyword::Asc);
                    false
                };
                order_by.push((key, desc));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.peek_kind() {
                Some(TokenKind::Int(n)) if n >= 0 => {
                    self.pos += 1;
                    Some(n as usize)
                }
                _ => return self.err("expected non-negative integer after LIMIT"),
            }
        } else {
            None
        };
        Ok(Query {
            star,
            items,
            from,
            joins,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_items(&mut self) -> QueryResult<(bool, Vec<SelectItem>)> {
        if self.eat(&TokenKind::Star) {
            return Ok((true, Vec::new()));
        }
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_keyword(Keyword::As) {
                Some(self.ident("alias after AS")?.to_string())
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok((false, items))
    }

    fn table_ref(&mut self) -> QueryResult<TableRef> {
        let table = self.ident("table name")?.to_string();
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.ident("alias after AS")?)
        } else if let Some(TokenKind::Ident(name)) = self.peek_kind() {
            self.pos += 1;
            Some(name)
        } else {
            None
        };
        Ok(TableRef {
            table,
            alias: alias.map(str::to_string),
        })
    }

    fn expr(&mut self) -> QueryResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> QueryResult<Expr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> QueryResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => BinOp::Eq,
            Some(TokenKind::Ne) => BinOp::Ne,
            Some(TokenKind::Lt) => BinOp::Lt,
            Some(TokenKind::Le) => BinOp::Le,
            Some(TokenKind::Gt) => BinOp::Gt,
            Some(TokenKind::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> QueryResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> QueryResult<Expr> {
        match self.peek_kind() {
            Some(TokenKind::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(TokenKind::Float(v)) => {
                self.pos += 1;
                Ok(Expr::Float(v))
            }
            Some(TokenKind::Str(v)) => {
                self.pos += 1;
                Ok(Expr::Str(v.to_string()))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect(TokenKind::RParen, "closing ')'")?;
                Ok(inner)
            }
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Bool(true));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Bool(false));
                }
                if self.eat(&TokenKind::LParen) {
                    let func = match AggFunc::from_name(name) {
                        Some(f) => f,
                        None => {
                            return self.err(format!("unknown function '{name}'"));
                        }
                    };
                    if self.eat(&TokenKind::Star) {
                        self.expect(TokenKind::RParen, "closing ')'")?;
                        if func == AggFunc::Count {
                            return Ok(Expr::Agg { func, arg: None });
                        }
                        return self.err("'*' argument is only valid for count");
                    }
                    let arg = self.expr()?;
                    self.expect(TokenKind::RParen, "closing ')'")?;
                    Ok(Expr::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                    })
                } else if self.eat(&TokenKind::Dot) {
                    let column = self.ident("column after '.'")?;
                    Ok(Expr::Column(qualified(name, column)))
                } else {
                    Ok(Expr::Column(name.to_string()))
                }
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_query() {
        let q = parse(
            "SELECT t.a, sum(t.b) AS total FROM t INNER JOIN u ON t.a = u.a \
             WHERE t.b > 2 AND NOT t.a = 0 GROUP BY t.a ORDER BY total DESC LIMIT 10",
        )
        .expect("parses");
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_select_star() {
        let q = parse("SELECT * FROM t LIMIT 3").expect("parses");
        assert!(q.star);
        assert!(q.items.is_empty());
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let q = parse("SELECT a + b * c FROM t").expect("parses");
        assert_eq!(q.items[0].expr.text(), "(a + (b * c))");
    }

    #[test]
    fn trailing_garbage_is_a_parse_error_with_offset() {
        let err = parse("SELECT a FROM t )").expect_err("rejects");
        assert_eq!(err.offset(), Some(16));
    }

    #[test]
    fn count_star_parses() {
        let q = parse("SELECT count(*) FROM t").expect("parses");
        assert_eq!(q.items[0].expr.text(), "count(*)");
    }

    #[test]
    fn sum_star_is_rejected() {
        assert!(parse("SELECT sum(*) FROM t").is_err());
    }
}
