//! Abstract syntax for the extended SQL dialect.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<` — also Paradise's circle-containment operator when the left
    /// side is a shape and the right a circle (benchmark Q7).
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `overlaps` — the spatial intersection predicate.
    Overlaps,
    /// `like` — SQL pattern match (`%` any run, `_` any one char).
    Like,
    /// `and`
    And,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `table.column` or bare `column`.
    Column {
        /// Optional table qualifier.
        table: Option<String>,
        /// Column name.
        column: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Function call / typed constructor (`Date("…")`, `Circle(p, r)`,
    /// `Polygon(x1, y1, …)`, `closest(a, b)`, `average(e)`).
    Call {
        /// Function name (case preserved; matched case-insensitively).
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// ADT method call (`expr.clip(p)`, `expr.area()`, …).
    Method {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Flattens an AND-tree into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                let mut v = lhs.conjuncts();
                v.extend(rhs.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// True when the expression mentions a method call named `name`
    /// anywhere (used by plan matching, e.g. spotting `clip`).
    pub fn mentions_method(&self, name: &str) -> bool {
        match self {
            Expr::Method { recv, name: n, args } => {
                n.eq_ignore_ascii_case(name)
                    || recv.mentions_method(name)
                    || args.iter().any(|a| a.mentions_method(name))
            }
            Expr::Call { args, .. } => args.iter().any(|a| a.mentions_method(name)),
            Expr::Binary { lhs, rhs, .. } => lhs.mentions_method(name) || rhs.mentions_method(name),
            _ => false,
        }
    }

    /// True when the expression is (or wraps) a call to function `name`.
    pub fn is_call(&self, name: &str) -> bool {
        matches!(self, Expr::Call { func, .. } if func.eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Overlaps => "overlaps",
            BinOp::Like => "like",
            BinOp::And => "and",
        })
    }
}

/// Renders the expression as SQL text (error messages name conjuncts).
impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let list = |args: &[Expr]| args.iter().map(Expr::to_string).collect::<Vec<_>>().join(", ");
        match self {
            Expr::Column { table: Some(t), column } => write!(f, "{t}.{column}"),
            Expr::Column { table: None, column } => f.write_str(column),
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => write!(f, "{v}"),
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::Call { func, args } => write!(f, "{func}({})", list(args)),
            Expr::Method { recv, name, args } => write!(f, "{recv}.{name}({})", list(args)),
            Expr::Binary { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// The projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `select *`
    Star,
    /// `select e1, e2, …`
    Exprs(Vec<Expr>),
}

/// How (whether) the statement asks for its plan instead of its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// Run the query normally.
    #[default]
    None,
    /// `EXPLAIN …` — show the chosen plan without executing it.
    Plan,
    /// `EXPLAIN ANALYZE …` — execute, then show the plan annotated with
    /// per-operator row counts, busy time, and buffer/network activity.
    Analyze,
}

/// A full statement: an optional EXPLAIN prefix around a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// EXPLAIN / EXPLAIN ANALYZE prefix, if any.
    pub explain: ExplainMode,
    /// The SELECT being run (or explained).
    pub select: SelectStmt,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub projection: Projection,
    /// FROM tables, in order.
    pub tables: Vec<String>,
    /// WHERE condition.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY column name.
    pub order_by: Option<String>,
}

impl SelectStmt {
    /// WHERE conjuncts ([] when no WHERE clause).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        self.where_clause.as_ref().map(|w| w.conjuncts()).unwrap_or_default()
    }

    /// Case-insensitive table membership.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.iter().any(|t| t.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_flattening() {
        let a = Expr::Int(1);
        let b = Expr::Int(2);
        let c = Expr::Int(3);
        let tree = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(a.clone()),
                rhs: Box::new(b.clone()),
            }),
            rhs: Box::new(c.clone()),
        };
        assert_eq!(tree.conjuncts(), vec![&a, &b, &c]);
        assert_eq!(a.conjuncts(), vec![&a]);
    }

    #[test]
    fn method_mention_search() {
        let e = Expr::Method {
            recv: Box::new(Expr::Method {
                recv: Box::new(Expr::Column { table: None, column: "data".into() }),
                name: "clip".into(),
                args: vec![],
            }),
            name: "average".into(),
            args: vec![],
        };
        assert!(e.mentions_method("clip"));
        assert!(e.mentions_method("AVERAGE"));
        assert!(!e.mentions_method("lower_res"));
    }
}
