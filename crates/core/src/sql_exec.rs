//! SQL execution: plan selection over the parsed AST.
//!
//! The optimizer of this reproduction is a *plan matcher*: the fourteen
//! benchmark query shapes (paper §3.1.2) are recognised structurally by
//! [`match_plan`] into a [`Plan`], which [`execute_plan`] dispatches to
//! the hand-tuned parallel plans in [`crate::queries`] (that is where the
//! paper's optimizer decisions — index selection, join method, small-outer
//! replication, decluster avoidance — are encoded). Everything else falls
//! back to a generic parallel scan-filter-project plan over a single
//! table.
//!
//! Splitting matching from execution is what powers `EXPLAIN` (render the
//! chosen [`Plan`]'s operator tree without running it) and
//! `EXPLAIN ANALYZE` (run it, then annotate each operator with the row
//! counts, busy time, and buffer/network activity its measured phase
//! recorded — plus a Chrome-trace profile when the instance has a trace
//! path configured).

use crate::db::{Paradise, QueryResult};
use crate::queries;
use crate::Result;
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::phase::run_phase;
use paradise_exec::value::{Date, Value};
use paradise_exec::{ExecError, Row, Tuple};
use paradise_geom::{Circle, Point, Polygon, Rect, Shape};
use paradise_sql::ast::{BinOp, ExplainMode, Expr, Projection, SelectStmt};
use paradise_sql::parse_statement;

/// Parses and runs one SQL statement (optionally `EXPLAIN [ANALYZE]`),
/// recording the execution (or its failure) in the query history.
pub fn run_sql(db: &Paradise, text: &str) -> Result<QueryResult> {
    let t0 = std::time::Instant::now();
    let outcome: Result<(Plan, QueryResult)> = (|| {
        let stmt = parse_statement(text).map_err(|e| ExecError::Other(e.to_string()))?;
        check_qualifiers(db, &stmt.select)?;
        let plan = match_plan(&stmt.select)?;
        let result = match stmt.explain {
            ExplainMode::None => execute_plan(db, &plan)?,
            ExplainMode::Plan => render_plan(&plan),
            ExplainMode::Analyze => explain_analyze(db, &plan)?,
        };
        Ok((plan, result))
    })();
    let history = db.history();
    let events = db.cluster().events();
    match outcome {
        Ok((plan, result)) => {
            history.record(
                text,
                plan.name(),
                "ok",
                result.rows.len() as u64,
                t0.elapsed(),
                &result.metrics,
                events,
            );
            Ok(result)
        }
        Err(e) => {
            events.emit("query.error", &[("error", e.to_string().into())]);
            history.record(
                text,
                "error",
                &e.to_string(),
                0,
                t0.elapsed(),
                &QueryMetrics::default(),
                events,
            );
            Err(e)
        }
    }
}

/// Fails unless every qualified column `t.c` of the statement names a FROM
/// table `t` that has a column `c`. `LCPYTYPE` (the DCW attribute name the
/// paper's Q7–Q9 use) is landCover's `type`. The shape matcher reads
/// columns by name, so without this check `landCover.name` would bind
/// Q8's city name and `bogus.name` Q5's.
fn check_qualifiers(db: &Paradise, stmt: &SelectStmt) -> Result<()> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<(&'a str, &'a str)>) {
        match e {
            Expr::Column { table: Some(t), column } => out.push((t, column)),
            Expr::Call { args, .. } => args.iter().for_each(|a| walk(a, out)),
            Expr::Method { recv, args, .. } => {
                walk(recv, out);
                args.iter().for_each(|a| walk(a, out));
            }
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Column { table: None, .. } | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => {}
        }
    }
    let mut qualified = Vec::new();
    if let Projection::Exprs(exprs) = &stmt.projection {
        exprs.iter().for_each(|e| walk(e, &mut qualified));
    }
    stmt.where_clause.iter().chain(&stmt.group_by).for_each(|e| walk(e, &mut qualified));
    for (table, column) in qualified {
        let Some(from) = stmt.tables.iter().find(|t| t.eq_ignore_ascii_case(table)) else {
            return Err(err(format!("`{table}.{column}`: {table} is not a table in FROM")));
        };
        let lcpytype =
            column.eq_ignore_ascii_case("LCPYTYPE") && from.eq_ignore_ascii_case("landCover");
        let column = if lcpytype { "type" } else { column };
        let has_column = |schema: &paradise_exec::Schema| {
            schema.fields().iter().any(|f| f.name.eq_ignore_ascii_case(column))
        };
        let found = match crate::catalog::CatalogTable::from_name(&from.to_ascii_lowercase()) {
            Some(catalog) => has_column(&catalog.schema()),
            None => {
                let table = match db.table(from) {
                    Ok(table) => table,
                    // FROM names match case-insensitively, like the shapes.
                    Err(e) => {
                        let names = db.table_names();
                        db.table(names.iter().find(|t| t.eq_ignore_ascii_case(from)).ok_or(e)?)?
                    }
                };
                has_column(&table.schema)
            }
        };
        if !found {
            return Err(err(format!("`{table}.{column}`: table {from} has no column {column}")));
        }
    }
    Ok(())
}

fn err(msg: impl Into<String>) -> ExecError {
    ExecError::Other(msg.into())
}

/// Evaluates a constant expression (literals and typed constructors).
fn eval_const(e: &Expr) -> Result<Value> {
    match e {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Call { func, args } => {
            let f = func.to_ascii_lowercase();
            match f.as_str() {
                "date" => {
                    let Some(Expr::Str(s)) = args.first() else {
                        return Err(err("Date() takes a string literal"));
                    };
                    Ok(Value::Date(Date::parse(s)?))
                }
                "point" => {
                    let (x, y) = two_floats(args)?;
                    Ok(Shape::Point(Point::new(x, y)).into())
                }
                "circle" => {
                    let center = args.first().map(eval_const).transpose()?;
                    let center = match center.as_ref().and_then(|v| v.as_shape().ok()) {
                        Some(Shape::Point(p)) => *p,
                        _ => return Err(err("Circle() takes (Point, radius)")),
                    };
                    let r = const_float(args.get(1).ok_or_else(|| err("Circle() radius"))?)?;
                    Ok(Shape::Circle(Circle::new(center, r).map_err(ExecError::Geom)?).into())
                }
                "polygon" | "closedpolygon" => {
                    // ClosedPolygon(Polygon(...)) or ClosedPolygon(x, y, …);
                    // a single argument must itself be a polygonal constant.
                    if args.len() == 1 {
                        let v = eval_const(&args[0])?;
                        return match v.as_shape() {
                            Ok(Shape::Polygon(_) | Shape::Rect(_)) => Ok(v),
                            _ => Err(err(format!("{func}() wraps a polygon, got {}", v.kind()))),
                        };
                    }
                    if args.len() < 6 || args.len() % 2 != 0 {
                        return Err(err("Polygon() takes x1, y1, x2, y2, … (>= 3 points)"));
                    }
                    let pts: Vec<Point> = args
                        .chunks(2)
                        .map(|c| Ok(Point::new(const_float(&c[0])?, const_float(&c[1])?)))
                        .collect::<Result<_>>()?;
                    Ok(Shape::Polygon(Polygon::new(pts).map_err(ExecError::Geom)?).into())
                }
                "rect" | "box" => {
                    if args.len() != 4 {
                        return Err(err("Rect() takes x0, y0, x1, y1"));
                    }
                    let vals: Vec<f64> = args.iter().map(const_float).collect::<Result<_>>()?;
                    let lo = Point::new(vals[0], vals[1]);
                    let hi = Point::new(vals[2], vals[3]);
                    Ok(Shape::Rect(Rect::from_corners(lo, hi).map_err(ExecError::Geom)?).into())
                }
                other => Err(err(format!("unknown constructor {other}()"))),
            }
        }
        other => Err(err(format!("expected a constant expression, found {other:?}"))),
    }
}

fn const_float(e: &Expr) -> Result<f64> {
    match eval_const(e)? {
        Value::Int(v) => Ok(v as f64),
        Value::Float(v) => Ok(v),
        other => Err(err(format!("expected number, got {}", other.kind()))),
    }
}

fn two_floats(args: &[Expr]) -> Result<(f64, f64)> {
    if args.len() != 2 {
        return Err(err("expected two numeric arguments"));
    }
    Ok((const_float(&args[0])?, const_float(&args[1])?))
}

fn const_polygon(e: &Expr) -> Result<Polygon> {
    let v = eval_const(e)?;
    match v.as_shape() {
        Ok(Shape::Polygon(p)) => Ok(p.clone()),
        Ok(Shape::Rect(r)) => Ok(Polygon::from_rect(r)),
        _ => Err(err(format!("expected polygon constant, got {}", v.kind()))),
    }
}

fn column_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column { column, .. } => Some(column),
        _ => None,
    }
}

/// The constant operand of a `column <op> constant` conjunct (either
/// operand order for `=`). `LCPYTYPE` is accepted as an alias of `type`
/// (the paper's Q7/Q9 use the DCW attribute name).
fn cmp_operand<'a>(c: &'a Expr, col: &str, want: BinOp) -> Option<&'a Expr> {
    let matches_col = |e: &Expr| {
        column_name(e).is_some_and(|c| {
            c.eq_ignore_ascii_case(col)
                || (col.eq_ignore_ascii_case("type") && c.eq_ignore_ascii_case("LCPYTYPE"))
        })
    };
    match c {
        Expr::Binary { op, lhs, rhs } if *op == want && matches_col(lhs) => Some(rhs),
        Expr::Binary { op: BinOp::Eq, lhs, rhs } if want == BinOp::Eq && matches_col(rhs) => {
            Some(lhs)
        }
        _ => None,
    }
}

/// The [`cmp_operand`] of the first conjunct that has one.
fn find_cmp<'a>(stmt: &'a SelectStmt, col: &str, want: BinOp) -> Option<&'a Expr> {
    stmt.conjuncts().into_iter().find_map(|c| cmp_operand(c, col, want))
}

/// Accepts the conjuncts [`cmp_operand`] reads.
fn is_cmp(col: &'static str, want: BinOp) -> impl Fn(&Expr) -> bool {
    move |c| cmp_operand(c, col, want).is_some()
}

/// Finds the first `clip(...)` argument anywhere in the statement.
fn find_clip_polygon(stmt: &SelectStmt) -> Option<Result<Polygon>> {
    fn search(e: &Expr) -> Option<&Expr> {
        match e {
            Expr::Method { recv, name, args } => {
                if name.eq_ignore_ascii_case("clip") {
                    return args.first();
                }
                search(recv).or_else(|| args.iter().find_map(search))
            }
            Expr::Call { args, .. } => args.iter().find_map(search),
            Expr::Binary { lhs, rhs, .. } => search(lhs).or_else(|| search(rhs)),
            _ => None,
        }
    }
    let mut exprs: Vec<&Expr> = Vec::new();
    if let Projection::Exprs(p) = &stmt.projection {
        exprs.extend(p.iter());
    }
    if let Some(w) = &stmt.where_clause {
        exprs.push(w);
    }
    exprs.into_iter().find_map(search).map(const_polygon)
}

/// Fails unless `plan` evaluates every WHERE conjunct, so a matched
/// benchmark shape never drops a predicate silently. Each of `evaluated`
/// accepts the conjunct forms one parameter of the plan is bound from and
/// claims at most one conjunct — the first it accepts, which is the one the
/// matcher bound; a conjunct no predicate claims is an error naming it.
fn check_conjuncts(
    stmt: &SelectStmt,
    plan: &str,
    evaluated: &[&dyn Fn(&Expr) -> bool],
) -> Result<()> {
    let mut claimed = vec![false; evaluated.len()];
    for c in stmt.conjuncts() {
        let Some(i) = (0..evaluated.len()).find(|&i| !claimed[i] && evaluated[i](c)) else {
            return Err(err(format!("the {plan} plan does not evaluate the WHERE conjunct `{c}`")));
        };
        claimed[i] = true;
    }
    Ok(())
}

/// `e` is the column `table.column` (qualified, case-insensitive).
fn is_column(e: &Expr, table: &str, column: &str) -> bool {
    matches!(e, Expr::Column { table: Some(t), column: c }
        if t.eq_ignore_ascii_case(table) && c.eq_ignore_ascii_case(column))
}

/// `e` is `a overlaps b` or `b overlaps a` for the columns `a` and `b`.
fn is_overlaps(e: &Expr, a: (&str, &str), b: (&str, &str)) -> bool {
    let Expr::Binary { op: BinOp::Overlaps, lhs, rhs } = e else {
        return false;
    };
    let col = |e: &Expr, (t, c): (&str, &str)| is_column(e, t, c);
    (col(lhs, a) && col(rhs, b)) || (col(lhs, b) && col(rhs, a))
}

/// The `N` of a `populatedPlaces.type = N` conjunct (either operand order).
fn city_type_eq(e: &Expr) -> Option<i64> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = e else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (c, Expr::Int(n)) | (Expr::Int(n), c) if is_column(c, "populatedplaces", "type") => {
            Some(*n)
        }
        _ => None,
    }
}

fn proj_mentions(stmt: &SelectStmt, method: &str) -> bool {
    match &stmt.projection {
        Projection::Exprs(exprs) => exprs.iter().any(|e| e.mentions_method(method)),
        Projection::Star => false,
    }
}

fn proj_has_call(stmt: &SelectStmt, func: &str) -> bool {
    match &stmt.projection {
        Projection::Exprs(exprs) => exprs.iter().any(|e| e.is_call(func)),
        Projection::Star => false,
    }
}

/// A matched (bound) query plan: the benchmark shape that was recognised,
/// together with its constant parameters. Produced by [`match_plan`],
/// executed by [`execute_plan`], rendered by [`Plan::describe`].
#[derive(Debug, Clone)]
pub enum Plan {
    /// Q2 — clips of one AVHRR channel over time.
    Q2 {
        /// Selected channel.
        channel: i64,
        /// Clip region.
        clip: Polygon,
    },
    /// Q3 — global average of one day's composite, clipped.
    Q3 {
        /// Composite date.
        date: Date,
        /// Clip region.
        clip: Polygon,
    },
    /// Q4 — browse: clip + lower_res.
    Q4 {
        /// Composite date.
        date: Date,
        /// Selected channel.
        channel: i64,
        /// Clip region.
        clip: Polygon,
        /// Resolution-lowering factor.
        factor: usize,
    },
    /// Q5 — exact-match select via the B+-tree.
    Q5 {
        /// City name.
        name: String,
    },
    /// Q6 — polygon-overlap selection via the R*-tree.
    Q6 {
        /// Query region.
        region: Polygon,
    },
    /// Q7 — circle containment (+ optional area bound).
    Q7 {
        /// Circle center.
        center: Point,
        /// Circle radius.
        radius: f64,
        /// Upper bound on polygon area.
        max_area: f64,
    },
    /// Q8 — indexed nested-loops spatial join around one city.
    Q8 {
        /// City name.
        name: String,
        /// makeBox window side length.
        box_len: f64,
    },
    /// Q9 — raster–polygon clip join at one date.
    Q9 {
        /// Composite date.
        date: Date,
        /// Selected channel.
        channel: i64,
        /// Oil-field polygon type.
        oil_type: i64,
    },
    /// Q10 — content-based raster selection.
    Q10 {
        /// Clip region.
        clip: Polygon,
        /// Average threshold.
        threshold: f64,
    },
    /// Q11 — closest road per type (two-phase extensible aggregate).
    Q11 {
        /// Reference point.
        point: Point,
    },
    /// Q12 — closest drainage per large city (Figure 3.1).
    Q12 {
        /// City type selecting "large" cities.
        city_type: i64,
    },
    /// Q13 — parallel spatial join of drainage and roads.
    Q13,
    /// Q14 — raster–polygon clip join over a date range.
    Q14 {
        /// Range start.
        lo: Date,
        /// Range end.
        hi: Date,
        /// Selected channel.
        channel: i64,
        /// Oil-field polygon type.
        oil_type: i64,
    },
    /// Fallback: parallel scan-filter-project over one table.
    GenericScan {
        /// The statement to evaluate row-at-a-time.
        stmt: SelectStmt,
    },
    /// A `paradise.*` system-catalog read (metrics, query history,
    /// buffer pools, streams).
    Catalog {
        /// Which system table.
        table: crate::catalog::CatalogTable,
        /// The statement (its WHERE/projection/ORDER BY apply to the
        /// materialised catalog rows).
        stmt: SelectStmt,
    },
}

/// Recognises the statement's benchmark shape and binds its parameters.
/// A GROUP BY or ORDER BY the plan does not compute is an error.
pub fn match_plan(stmt: &SelectStmt) -> Result<Plan> {
    let plan = match_shape(stmt)?;
    check_grouping_and_order(stmt, &plan)?;
    Ok(plan)
}

/// Fails unless `plan` computes exactly the statement's GROUP BY and
/// ORDER BY. Q11 groups roads by `type` and Q12 cities by
/// `populatedPlaces.location`; no other plan groups. Q2 orders by `date`;
/// the scans order by a projected column (checked against the schema when
/// they run); no other plan orders.
fn check_grouping_and_order(stmt: &SelectStmt, plan: &Plan) -> Result<()> {
    let grouped_by = |table: &str, column: &str| match stmt.group_by.as_slice() {
        [Expr::Column { table: t, column: c }] => {
            c.eq_ignore_ascii_case(column)
                && t.as_ref().is_none_or(|t| t.eq_ignore_ascii_case(table))
        }
        _ => false,
    };
    let grouping_ok = match plan {
        Plan::Q11 { .. } => grouped_by("roads", "type"),
        Plan::Q12 { .. } => grouped_by("populatedplaces", "location"),
        _ => stmt.group_by.is_empty(),
    };
    if !grouping_ok {
        let list: Vec<String> = stmt.group_by.iter().map(ToString::to_string).collect();
        return Err(err(format!(
            "the {} plan does not compute GROUP BY [{}]",
            plan.name(),
            list.join(", ")
        )));
    }
    let order_ok = match (plan, &stmt.order_by) {
        (_, None) | (Plan::GenericScan { .. } | Plan::Catalog { .. }, _) => true,
        (Plan::Q2 { .. }, Some(col)) => col.eq_ignore_ascii_case("date"),
        _ => false,
    };
    match &stmt.order_by {
        Some(col) if !order_ok => {
            Err(err(format!("the {} plan does not compute ORDER BY {col}", plan.name())))
        }
        _ => Ok(()),
    }
}

/// The benchmark shape of a statement, with its parameters bound.
fn match_shape(stmt: &SelectStmt) -> Result<Plan> {
    let tables: Vec<String> = stmt.tables.iter().map(|t| t.to_ascii_lowercase()).collect();

    // --- system catalog -------------------------------------------------
    if let [name] = tables.as_slice() {
        if name.starts_with("paradise.") {
            let table = crate::catalog::CatalogTable::from_name(name)
                .ok_or_else(|| err(format!("unknown system table {name}")))?;
            return Ok(Plan::Catalog { table, stmt: stmt.clone() });
        }
    }

    let only = |name: &str| tables.len() == 1 && tables[0] == name;
    let pair = |a: &str, b: &str| {
        tables.len() == 2 && tables.contains(&a.to_string()) && tables.contains(&b.to_string())
    };

    // --- raster-only shapes: Q2, Q3, Q4, Q10 -------------------------
    if only("raster") {
        let date = find_cmp(stmt, "date", BinOp::Eq).map(eval_const);
        let channel = find_cmp(stmt, "channel", BinOp::Eq).map(eval_const);
        if proj_has_call(stmt, "average") {
            // Q3: select average(raster.data.clip(P)) … where date = D
            let clip = find_clip_polygon(stmt).ok_or_else(|| err("Q3 needs clip(polygon)"))??;
            let Some(Ok(Value::Date(date))) = date else {
                return Err(err("Q3 needs raster.date = Date(...)"));
            };
            check_conjuncts(stmt, "Q3", &[&is_cmp("date", BinOp::Eq)])?;
            return Ok(Plan::Q3 { date, clip });
        }
        if proj_mentions(stmt, "lower_res") {
            // Q4
            let clip = find_clip_polygon(stmt).ok_or_else(|| err("Q4 needs clip(polygon)"))??;
            let (Some(Ok(Value::Date(date))), Some(Ok(Value::Int(channel)))) = (date, channel)
            else {
                return Err(err("Q4 needs date = Date(...) and channel = N"));
            };
            let factor = find_lower_res_factor(stmt)?;
            check_conjuncts(
                stmt,
                "Q4",
                &[&is_cmp("channel", BinOp::Eq), &is_cmp("date", BinOp::Eq)],
            )?;
            return Ok(Plan::Q4 { date, channel, clip, factor });
        }
        if stmt.where_clause.as_ref().is_some_and(|w| w.mentions_method("average")) {
            // Q10: where clip(P).average() > C
            let clip = find_clip_polygon(stmt).ok_or_else(|| err("Q10 needs clip(polygon)"))??;
            let threshold = find_average_threshold(stmt)
                .ok_or_else(|| err("Q10 needs clip(...).average() > C"))?;
            check_conjuncts(stmt, "Q10", &[&|c| average_threshold(c).is_some()])?;
            return Ok(Plan::Q10 { clip, threshold });
        }
        if proj_mentions(stmt, "clip") {
            // Q2
            let Some(Ok(Value::Int(channel))) = channel else {
                return Err(err("Q2 needs raster.channel = N"));
            };
            let clip = find_clip_polygon(stmt).ok_or_else(|| err("Q2 needs clip(polygon)"))??;
            check_conjuncts(stmt, "Q2", &[&is_cmp("channel", BinOp::Eq)])?;
            return Ok(Plan::Q2 { channel, clip });
        }
    }

    // --- Q5 -----------------------------------------------------------
    if only("populatedplaces") {
        if let Some(e) = find_cmp(stmt, "name", BinOp::Eq) {
            if let Value::Str(name) = eval_const(e)? {
                check_conjuncts(stmt, "Q5", &[&is_cmp("name", BinOp::Eq)])?;
                return Ok(Plan::Q5 { name });
            }
        }
    }

    // --- landCover-only shapes: Q6, Q7 ---------------------------------
    if only("landcover") {
        // Q7: shape < Circle(...) [and shape.area() < C]
        if let Some(rhs) = find_cmp(stmt, "shape", BinOp::Lt) {
            if let Ok(Shape::Circle(c)) = eval_const(rhs)?.as_shape() {
                let max_area = find_area_bound(stmt).unwrap_or(f64::INFINITY);
                check_conjuncts(
                    stmt,
                    "Q7",
                    &[&is_cmp("shape", BinOp::Lt), &|c| area_bound(c).is_some()],
                )?;
                return Ok(Plan::Q7 { center: c.center, radius: c.radius, max_area });
            }
        }
        // Q6: shape overlaps POLYGON
        if let Some(rhs) = find_overlaps_const(stmt) {
            let region = const_polygon(rhs)?;
            check_conjuncts(stmt, "Q6", &[&|c| overlaps_const(c).is_some()])?;
            return Ok(Plan::Q6 { region });
        }
    }

    // --- Q8 -------------------------------------------------------------
    if pair("landcover", "populatedplaces") && !proj_has_call(stmt, "closest") {
        let name = match find_cmp(stmt, "name", BinOp::Eq).map(eval_const).transpose()? {
            Some(Value::Str(s)) => s,
            _ => return Err(err("Q8 needs populatedPlaces.name = \"…\"")),
        };
        let box_len = find_make_box_len(stmt).ok_or_else(|| err("Q8 needs makeBox(L)"))?;
        check_conjuncts(stmt, "Q8", &[&is_cmp("name", BinOp::Eq), &|c| make_box_len(c).is_some()])?;
        return Ok(Plan::Q8 { name, box_len });
    }

    // --- Q9 / Q14 ---------------------------------------------------------
    if pair("landcover", "raster") {
        let oil_type = match find_cmp(stmt, "type", BinOp::Eq).map(eval_const).transpose()? {
            Some(Value::Int(t)) => t,
            _ => return Err(err("Q9/Q14 need landCover.LCPYTYPE = N")),
        };
        let channel = match find_cmp(stmt, "channel", BinOp::Eq).map(eval_const).transpose()? {
            Some(Value::Int(c)) => c,
            _ => return Err(err("Q9/Q14 need raster.channel = N")),
        };
        let (type_eq, channel_eq) = (is_cmp("type", BinOp::Eq), is_cmp("channel", BinOp::Eq));
        if let Some(e) = find_cmp(stmt, "date", BinOp::Eq) {
            if let Value::Date(date) = eval_const(e)? {
                check_conjuncts(stmt, "Q9", &[&type_eq, &channel_eq, &is_cmp("date", BinOp::Eq)])?;
                return Ok(Plan::Q9 { date, channel, oil_type });
            }
        }
        let lo = find_cmp(stmt, "date", BinOp::Ge).map(eval_const).transpose()?;
        let hi = find_cmp(stmt, "date", BinOp::Le).map(eval_const).transpose()?;
        if let (Some(Value::Date(lo)), Some(Value::Date(hi))) = (lo, hi) {
            let (ge, le) = (is_cmp("date", BinOp::Ge), is_cmp("date", BinOp::Le));
            check_conjuncts(stmt, "Q14", &[&type_eq, &channel_eq, &ge, &le])?;
            return Ok(Plan::Q14 { lo, hi, channel, oil_type });
        }
        return Err(err("Q9/Q14 need a date equality or range"));
    }

    // --- Q11 ----------------------------------------------------------------
    if only("roads") && proj_has_call(stmt, "closest") {
        let p = find_closest_point(stmt).ok_or_else(|| err("closest(shape, Point(x, y))"))?;
        check_conjuncts(stmt, "Q11", &[])?;
        return Ok(Plan::Q11 { point: p? });
    }

    // --- Q12 -----------------------------------------------------------------
    if pair("drainage", "populatedplaces") && proj_has_call(stmt, "closest") {
        let location_overlaps_shape =
            |c: &Expr| is_overlaps(c, ("populatedplaces", "location"), ("drainage", "shape"));
        check_conjuncts(stmt, "Q12", &[&location_overlaps_shape, &|c| city_type_eq(c).is_some()])?;
        let city_type = stmt
            .conjuncts()
            .into_iter()
            .find_map(city_type_eq)
            .ok_or_else(|| err("Q12 needs populatedPlaces.type = N"))?;
        return Ok(Plan::Q12 { city_type });
    }

    // --- Q13 ----------------------------------------------------------------
    if pair("drainage", "roads") {
        let shapes_overlap = |c: &Expr| is_overlaps(c, ("drainage", "shape"), ("roads", "shape"));
        check_conjuncts(stmt, "Q13", &[&shapes_overlap])?;
        if !stmt.conjuncts().into_iter().any(shapes_overlap) {
            return Err(err("Q13 needs drainage.shape overlaps roads.shape"));
        }
        return Ok(Plan::Q13);
    }

    // --- generic fallback ------------------------------------------------
    if tables.len() == 1 {
        return Ok(Plan::GenericScan { stmt: stmt.clone() });
    }
    Err(err("unsupported query shape"))
}

/// Runs a matched plan against the database.
pub fn execute_plan(db: &Paradise, plan: &Plan) -> Result<QueryResult> {
    match plan {
        Plan::Q2 { channel, clip } => queries::q2(db, *channel, clip),
        Plan::Q3 { date, clip } => queries::q3(db, *date, clip, false),
        Plan::Q4 { date, channel, clip, factor } => queries::q4(db, *date, *channel, clip, *factor),
        Plan::Q5 { name } => queries::q5(db, name),
        Plan::Q6 { region } => queries::q6(db, region),
        Plan::Q7 { center, radius, max_area } => queries::q7(db, *center, *radius, *max_area),
        Plan::Q8 { name, box_len } => queries::q8(db, name, *box_len),
        Plan::Q9 { date, channel, oil_type } => queries::q9(db, *date, *channel, *oil_type),
        Plan::Q10 { clip, threshold } => queries::q10(db, clip, *threshold),
        Plan::Q11 { point } => queries::q11(db, *point),
        Plan::Q12 { city_type } => queries::q12(db, *city_type, true),
        Plan::Q13 => queries::q13(db),
        Plan::Q14 { lo, hi, channel, oil_type } => queries::q14(db, *lo, *hi, *channel, *oil_type),
        Plan::GenericScan { stmt } => generic_scan(db, stmt),
        Plan::Catalog { table, stmt } => catalog_scan(db, *table, stmt),
    }
}

/// One rendered operator line of a plan tree.
#[derive(Debug, Clone)]
pub struct PlanLine {
    /// Nesting depth below the plan header.
    pub indent: usize,
    /// Operator description.
    pub text: String,
    /// The measured phase that drives this operator (matched by name
    /// against [`QueryMetrics::phases`] for `EXPLAIN ANALYZE`).
    pub phase: Option<&'static str>,
}

fn op(indent: usize, text: impl Into<String>, phase: Option<&'static str>) -> PlanLine {
    PlanLine { indent, text: text.into(), phase }
}

impl Plan {
    /// Short name of the matched shape ("Q2" … "Q14", "GenericScan").
    pub fn name(&self) -> &'static str {
        match self {
            Plan::Q2 { .. } => "Q2",
            Plan::Q3 { .. } => "Q3",
            Plan::Q4 { .. } => "Q4",
            Plan::Q5 { .. } => "Q5",
            Plan::Q6 { .. } => "Q6",
            Plan::Q7 { .. } => "Q7",
            Plan::Q8 { .. } => "Q8",
            Plan::Q9 { .. } => "Q9",
            Plan::Q10 { .. } => "Q10",
            Plan::Q11 { .. } => "Q11",
            Plan::Q12 { .. } => "Q12",
            Plan::Q13 => "Q13",
            Plan::Q14 { .. } => "Q14",
            Plan::GenericScan { .. } => "GenericScan",
            Plan::Catalog { .. } => "CatalogScan",
        }
    }

    /// The plan's operator tree, top-down; operators that correspond to a
    /// measured phase carry its name so `EXPLAIN ANALYZE` can annotate
    /// them with the recorded rows / busy time / buffer / network counters.
    pub fn describe(&self) -> Vec<PlanLine> {
        match self {
            Plan::Q2 { channel, .. } => vec![
                op(0, "Sort [date]  (QC, sequential)", None),
                op(1, "Gather -> QC", None),
                op(2, "Clip + Project [data.clip(POLYGON)]", Some("scan + clip rasters")),
                op(3, format!("SeqScan raster [channel = {channel}]"), None),
            ],
            Plan::Q3 { date, .. } => vec![
                op(0, "Average [clip(POLYGON)]  (node 0, sequential)", None),
                op(1, "PullTiles [clip-region tiles -> node 0]", None),
                op(2, format!("SeqScan raster [date = {date}]"), Some("locate rasters")),
            ],
            Plan::Q4 { date, channel, factor, .. } => vec![
                op(0, "Gather -> QC", None),
                op(
                    1,
                    format!("Clip + LowerRes [clip(POLYGON).lower_res({factor})]"),
                    Some("select + clip + lower_res"),
                ),
                op(2, format!("SeqScan raster [date = {date}, channel = {channel}]"), None),
            ],
            Plan::Q5 { name } => vec![
                op(0, "Gather -> QC", None),
                op(
                    1,
                    format!("BTreeIndexScan populatedPlaces [name = {name:?}]"),
                    Some("index probe"),
                ),
            ],
            Plan::Q6 { .. } => vec![
                op(0, "Gather -> QC", None),
                op(
                    1,
                    "RTreeIndexScan landCover [shape overlaps POLYGON]",
                    Some("spatial index selection"),
                ),
            ],
            Plan::Q7 { center, radius, max_area } => {
                let mut pred = format!("shape < Circle(({}, {}), {radius})", center.x, center.y);
                if max_area.is_finite() {
                    pred.push_str(&format!(" and area() < {max_area}"));
                }
                vec![
                    op(0, "Gather -> QC", None),
                    op(1, format!("Filter [{pred}]"), Some("circle selection")),
                    op(2, "RTreeIndexScan landCover [shape overlaps circle bbox]", None),
                ]
            }
            Plan::Q8 { name, box_len } => vec![
                op(0, "Gather -> QC", None),
                op(
                    1,
                    format!("IndexedNLJoin [landCover.shape overlaps makeBox({box_len})]"),
                    Some("indexed NL spatial join"),
                ),
                op(2, "RTreeIndexScan landCover  (inner, per box)", None),
                op(2, "Broadcast city boxes  (QC)", None),
                op(
                    3,
                    format!("BTreeIndexScan populatedPlaces [name = {name:?}]"),
                    Some("select cities"),
                ),
            ],
            Plan::Q9 { date, channel, oil_type } => clip_join_tree(
                format!("SeqScan raster [date = {date}, channel = {channel}]"),
                *oil_type,
            ),
            Plan::Q14 { lo, hi, channel, oil_type } => clip_join_tree(
                format!("SeqScan raster [date in [{lo}, {hi}], channel = {channel}]"),
                *oil_type,
            ),
            Plan::Q10 { threshold, .. } => vec![
                op(0, "Gather -> QC", None),
                op(
                    1,
                    format!("Filter [clip(POLYGON).average() > {threshold}]"),
                    Some("clip + average predicate"),
                ),
                op(2, "SeqScan raster", None),
            ],
            Plan::Q11 { point } => vec![
                op(0, "GlobalClosest [group by type]  (QC, sequential)", None),
                op(
                    1,
                    format!("PartialClosest [closest(shape, ({}, {}))]", point.x, point.y),
                    Some("local closest per type"),
                ),
                op(2, "SeqScan roads", None),
            ],
            Plan::Q12 { city_type } => vec![
                op(0, "GlobalAggregate  (QC, sequential)", None),
                op(1, "JoinWithAggregate [expanding circles]", Some("join with aggregate")),
                op(2, "SpatialSemiJoin [city -> owning tile]", Some("spatial semi-join")),
                op(3, "BuildLocalRTree drainage", Some("build local index")),
                op(
                    3,
                    format!("Filter populatedPlaces [type = {city_type}]"),
                    Some("select large cities"),
                ),
            ],
            Plan::Q13 => vec![
                op(0, "Gather -> QC", None),
                op(1, "PBSMJoin [drainage.shape overlaps roads.shape]", Some("local spatial join")),
                op(2, "SeqScan drainage  (co-partitioned on grid)", None),
                op(2, "SeqScan roads  (co-partitioned on grid)", None),
            ],
            Plan::GenericScan { stmt } => {
                let mut v = vec![op(0, "Gather -> QC", None)];
                if let Some(col) = &stmt.order_by {
                    v.insert(0, op(0, format!("Sort [{col}]  (QC, sequential)"), None));
                }
                let base = v.len() - 1;
                v.push(op(base + 1, "Filter + Project", Some("scan + filter + project")));
                v.push(op(base + 2, format!("SeqScan {}", stmt.tables[0]), None));
                v
            }
            Plan::Catalog { table, .. } => {
                let mut v = vec![op(0, "Filter + Project  (QC)", None)];
                if table.is_per_node() {
                    v.push(op(
                        1,
                        format!("CatalogScan {} [stats pull per node]", table.name()),
                        Some("catalog scan"),
                    ));
                } else {
                    v.push(op(1, format!("CatalogScan {}  (QC, sequential)", table.name()), None));
                }
                v
            }
        }
    }
}

/// Shared Q9/Q14 operator tree (they differ only in the raster scan line).
fn clip_join_tree(raster_scan: String, oil_type: i64) -> Vec<PlanLine> {
    vec![
        op(0, "Gather -> QC", None),
        op(1, "ClipJoin [raster x oil-field polygons]", Some("clip rasters by polygons")),
        op(2, raster_scan, None),
        op(2, "Replicate oil fields  (QC)", None),
        op(3, format!("Filter landCover [type = {oil_type}]"), Some("select oil fields")),
    ]
}

/// Renders a plan tree without executing it (`EXPLAIN`).
fn render_plan(plan: &Plan) -> QueryResult {
    let mut lines = vec![format!("{} plan", plan.name())];
    for l in plan.describe() {
        lines.push(format!("{}{}", "  ".repeat(l.indent + 1), l.text));
    }
    plan_result(lines, QueryMetrics::default())
}

/// Runs the plan under the cluster's trace sink, then renders the operator
/// tree annotated with each phase's recorded row counts, busy time, and
/// buffer/network activity (`EXPLAIN ANALYZE`). Writes the Chrome-trace
/// profile when the instance has a trace path configured.
fn explain_analyze(db: &Paradise, plan: &Plan) -> Result<QueryResult> {
    let sink = db.cluster().trace();
    let was_enabled = sink.is_enabled();
    sink.clear();
    sink.set_enabled(true);
    let executed = execute_plan(db, plan);
    sink.set_enabled(was_enabled);
    let result = executed?;
    let m = &result.metrics;

    let mut lines = vec![format!("{} plan  (analyzed)", plan.name())];
    for l in plan.describe() {
        let mut text = format!("{}{}", "  ".repeat(l.indent + 1), l.text);
        if let Some(phase) = l.phase {
            if let Some(p) = m.phases.iter().find(|p| p.name == phase) {
                let mut ann = Vec::new();
                if let Some(rows) = p.rows_out() {
                    ann.push(format!("rows={rows}"));
                }
                ann.push(format!("busy={:.2?}", p.critical()));
                if p.morsels > 0 {
                    ann.push(format!("morsels={}", p.morsels));
                }
                if p.net.bytes > 0 {
                    ann.push(format!("net={:.1}KB", p.net.bytes as f64 / 1024.0));
                }
                if p.buffer.hits + p.buffer.misses > 0 {
                    ann.push(format!(
                        "buf={}/{} ({:.0}% hit)",
                        p.buffer.hits,
                        p.buffer.misses,
                        p.buffer.hit_rate()
                    ));
                }
                text.push_str(&format!("  [{}]", ann.join(" ")));
            } else {
                text.push_str("  [not executed]");
            }
        }
        lines.push(text);
    }
    lines.push(String::new());
    lines.extend(m.to_string().lines().map(str::to_string));
    lines.push(format!("result rows: {}", result.rows.len()));
    if let Some(path) = db.trace_path() {
        sink.write_chrome_json(path)
            .map_err(|e| err(format!("writing trace {}: {e}", path.display())))?;
        lines.push(format!("trace: {} ({} events)", path.display(), sink.len()));
    }
    Ok(plan_result(lines, result.metrics))
}

fn plan_result(lines: Vec<String>, metrics: QueryMetrics) -> QueryResult {
    QueryResult {
        columns: vec!["QUERY PLAN".to_string()],
        rows: lines.into_iter().map(|l| Tuple::new(vec![Value::Str(l)])).collect(),
        metrics,
    }
}

/// The factor of Q4's `lower_res(N)`: one positive integer literal.
fn find_lower_res_factor(stmt: &SelectStmt) -> Result<usize> {
    let exprs = match &stmt.projection {
        Projection::Exprs(exprs) => exprs.as_slice(),
        Projection::Star => &[],
    };
    let call = exprs.iter().find_map(|e| match e {
        Expr::Method { name, args, .. } if name.eq_ignore_ascii_case("lower_res") => Some(args),
        _ => None,
    });
    let Some(args) = call else {
        return Err(err("Q4 needs a lower_res(N) projection"));
    };
    let factor = match args.as_slice() {
        [Expr::Int(k)] => usize::try_from(*k).ok().filter(|&k| k > 0),
        _ => None,
    };
    factor.ok_or_else(|| {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        err(format!("lower_res({}) needs one positive integer literal factor", args.join(", ")))
    })
}

/// The `C` of a `… .average() > C` conjunct (Q10).
fn average_threshold(c: &Expr) -> Option<f64> {
    match c {
        Expr::Binary { op: BinOp::Gt, lhs, rhs } if lhs.mentions_method("average") => {
            const_float(rhs).ok()
        }
        _ => None,
    }
}

fn find_average_threshold(stmt: &SelectStmt) -> Option<f64> {
    stmt.conjuncts().into_iter().find_map(average_threshold)
}

/// The `C` of a `… .area() < C` conjunct (Q7).
fn area_bound(c: &Expr) -> Option<f64> {
    match c {
        Expr::Binary { op: BinOp::Lt, lhs, rhs } if lhs.mentions_method("area") => {
            const_float(rhs).ok()
        }
        _ => None,
    }
}

fn find_area_bound(stmt: &SelectStmt) -> Option<f64> {
    stmt.conjuncts().into_iter().find_map(area_bound)
}

/// The constant of a `shape overlaps <constructor>` conjunct (Q6).
fn overlaps_const(c: &Expr) -> Option<&Expr> {
    match c {
        Expr::Binary { op: BinOp::Overlaps, lhs, rhs }
            if column_name(lhs).is_some_and(|c| c.eq_ignore_ascii_case("shape"))
                && matches!(**rhs, Expr::Call { .. }) =>
        {
            Some(rhs)
        }
        _ => None,
    }
}

fn find_overlaps_const(stmt: &SelectStmt) -> Option<&Expr> {
    stmt.conjuncts().into_iter().find_map(overlaps_const)
}

/// The `L` of a `… overlaps location.makeBox(L)` conjunct, either operand
/// order (Q8).
fn make_box_len(c: &Expr) -> Option<f64> {
    let Expr::Binary { op: BinOp::Overlaps, lhs, rhs } = c else {
        return None;
    };
    fn make_box(e: &Expr) -> Option<&Expr> {
        match e {
            Expr::Method { name, args, .. } if name.eq_ignore_ascii_case("makebox") => args.first(),
            _ => None,
        }
    }
    make_box(lhs).or_else(|| make_box(rhs)).and_then(|a| const_float(a).ok())
}

fn find_make_box_len(stmt: &SelectStmt) -> Option<f64> {
    stmt.conjuncts().into_iter().find_map(make_box_len)
}

fn find_closest_point(stmt: &SelectStmt) -> Option<Result<Point>> {
    if let Projection::Exprs(exprs) = &stmt.projection {
        for e in exprs {
            if let Expr::Call { func, args } = e {
                if func.eq_ignore_ascii_case("closest") {
                    if let Some(arg) = args.get(1) {
                        return Some(eval_const(arg).and_then(|v| match v.as_shape() {
                            Ok(Shape::Point(p)) => Ok(*p),
                            _ => Err(err(format!("closest() wants a point, got {}", v.kind()))),
                        }));
                    }
                }
            }
        }
    }
    None
}

/// A single-table statement's WHERE, select list and ORDER BY, bound
/// against the table's schema and applied row at a time. The generic scan
/// and the catalog scan both run through it.
struct RowEval<'a> {
    stmt: &'a SelectStmt,
    schema: &'a paradise_exec::Schema,
    /// The output position ORDER BY sorts on.
    sort_col: Option<usize>,
}

impl<'a> RowEval<'a> {
    /// Binds the statement. ORDER BY must name a column of the output:
    /// any schema column under `*`, else a plainly projected column.
    fn bind(stmt: &'a SelectStmt, schema: &'a paradise_exec::Schema) -> Result<Self> {
        let sort_col = match (&stmt.order_by, &stmt.projection) {
            (None, _) => None,
            (Some(col), Projection::Star) => Some(schema.index_of(col)?),
            (Some(col), Projection::Exprs(exprs)) => {
                let pos = exprs.iter().position(|e| column_name(e) == Some(col.as_str()));
                Some(pos.ok_or_else(|| {
                    err(format!("ORDER BY {col}: the column is not in the select list"))
                })?)
            }
        };
        Ok(RowEval { stmt, schema, sort_col })
    }

    /// The output row for `t`, or `None` when WHERE rejects it.
    fn apply(&self, t: &Tuple) -> Result<Option<Tuple>> {
        Ok(if self.accepts(t)? { Some(self.project(t)?) } else { None })
    }

    /// Whether WHERE accepts the row; reads only the columns it names.
    fn accepts(&self, row: &impl Columns) -> Result<bool> {
        match &self.stmt.where_clause {
            Some(w) => eval_predicate(w, row, self.schema),
            None => Ok(true),
        }
    }

    /// The select list evaluated over `t`.
    fn project(&self, t: &Tuple) -> Result<Tuple> {
        Ok(match &self.stmt.projection {
            Projection::Star => t.clone(),
            Projection::Exprs(exprs) => Tuple::new(
                exprs.iter().map(|e| eval_expr(e, t, self.schema)).collect::<Result<_>>()?,
            ),
        })
    }

    /// Sorts the output rows and names the output columns.
    fn finish(&self, rows: Vec<Tuple>, metrics: QueryMetrics) -> Result<QueryResult> {
        let rows = match self.sort_col {
            Some(col) => paradise_exec::ops::basic::sort_by_col(rows, col)?,
            None => rows,
        };
        let columns = match &self.stmt.projection {
            Projection::Star => self.schema.fields().iter().map(|f| f.name.clone()).collect(),
            Projection::Exprs(exprs) => exprs
                .iter()
                .enumerate()
                .map(|(i, e)| column_name(e).map(str::to_string).unwrap_or(format!("col{i}")))
                .collect(),
        };
        Ok(QueryResult { columns, rows, metrics })
    }
}

/// The generic parallel plan: per-node scan, scalar predicate and
/// projection, then the surviving rows travel to the QC through
/// [`paradise_exec::phase::exchange`] like every other plan's results.
/// Each node evaluates only the rows it is home to
/// ([`paradise_exec::Decluster::is_home`]), so a spatially replicated
/// tuple is returned once and its other replicas are never decoded. WHERE
/// reads its columns from the record in place, so only the rows it
/// accepts are decoded whole.
fn generic_scan(db: &Paradise, stmt: &SelectStmt) -> Result<QueryResult> {
    let t0 = std::time::Instant::now();
    let net0 = db.cluster().net.snapshot();
    let table = db.table(&stmt.tables[0])?;
    let eval = RowEval::bind(stmt, &table.schema)?;
    let mut m = QueryMetrics::default();
    let per_node = run_phase(db.cluster(), &mut m, "scan + filter + project", |node| {
        let mut rows = Vec::new();
        table.scan_fragment(db.cluster(), node, |_, row| {
            if table.decluster.is_home(db.cluster(), node, row)? && eval.accepts(row)? {
                rows.push(eval.project(&row.to_tuple()?)?);
            }
            Ok(())
        })?;
        Ok(rows)
    })?;
    let rows = queries::collect_rows(db, per_node)?;
    let mut result = eval.finish(rows, m)?;
    queries::seal(db, net0, &mut result.metrics, t0);
    Ok(result)
}

/// Where an expression reads its columns: a decoded tuple, or a record
/// read in place, one column at a time.
trait Columns {
    /// Column `i`, as an owned value.
    fn column(&self, i: usize) -> Result<Value>;
}

impl Columns for Tuple {
    fn column(&self, i: usize) -> Result<Value> {
        Ok(self.get(i)?.clone())
    }
}

impl Columns for Row<'_> {
    fn column(&self, i: usize) -> Result<Value> {
        self.get(i)
    }
}

fn eval_expr(e: &Expr, t: &impl Columns, schema: &paradise_exec::Schema) -> Result<Value> {
    match e {
        Expr::Column { column, .. } => t.column(schema.index_of(column)?),
        Expr::Method { recv, name, args } => {
            let r = eval_expr(recv, t, schema)?;
            match (r.as_shape().ok(), name.to_ascii_lowercase().as_str()) {
                (Some(s), "area") => match s {
                    Shape::Polygon(p) => Ok(Value::Float(p.area())),
                    Shape::SwissCheese(sc) => Ok(Value::Float(sc.area())),
                    Shape::Rect(r) => Ok(Value::Float(r.area())),
                    Shape::Circle(c) => Ok(Value::Float(c.area())),
                    _ => Err(err("area() on a non-areal shape")),
                },
                (Some(s), "length") => match s {
                    Shape::Polyline(l) => Ok(Value::Float(l.length())),
                    _ => Err(err("length() on a non-polyline")),
                },
                (Some(Shape::Point(p)), "makebox") => {
                    let len = const_float(args.first().ok_or_else(|| err("makeBox(L)"))?)?;
                    Ok(Shape::Rect(p.make_box(len)).into())
                }
                (_, m) => Err(err(format!("unsupported method {m}() on {}", r.kind()))),
            }
        }
        other => eval_const(other),
    }
}

fn eval_predicate(e: &Expr, t: &impl Columns, schema: &paradise_exec::Schema) -> Result<bool> {
    match e {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            Ok(eval_predicate(lhs, t, schema)? && eval_predicate(rhs, t, schema)?)
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_expr(lhs, t, schema)?;
            let r = eval_expr(rhs, t, schema)?;
            match op {
                BinOp::Overlaps => match (l, r) {
                    (Value::Shape(a), Value::Shape(b)) => Ok(a.overlaps(&b)),
                    _ => Err(err("overlaps needs two shapes")),
                },
                BinOp::Like => match (l, r) {
                    (Value::Str(text), Value::Str(pattern)) => Ok(like_match(&pattern, &text)),
                    (l, r) => {
                        Err(err(format!("like needs strings, got {} / {}", l.kind(), r.kind())))
                    }
                },
                BinOp::Lt if matches!(l, Value::Shape(_)) => match (l.as_shape()?, r.as_shape()) {
                    // Circle containment (Q7 syntax).
                    (Shape::Polygon(p), Ok(Shape::Circle(c))) => Ok(p.within_circle(c)),
                    (Shape::Point(p), Ok(Shape::Circle(c))) => Ok(c.contains_point(p)),
                    _ => Err(err("shape < … expects a circle on the right")),
                },
                _ => {
                    let ord = compare_values(&l, &r)?;
                    Ok(match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        BinOp::Overlaps | BinOp::And | BinOp::Like => unreachable!(),
                    })
                }
            }
        }
        other => Err(err(format!("expected a predicate, found {other:?}"))),
    }
}

/// SQL LIKE: `%` matches any run (including empty), `_` any one
/// character; everything else matches literally (case-sensitive).
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // matched[j]: does some prefix-to-date of the pattern match t[..j]?
    let mut matched = vec![false; t.len() + 1];
    matched[0] = true;
    for pc in &p {
        match pc {
            '%' => {
                // A run of anything: once a prefix matches, every longer
                // prefix does too.
                for j in 1..=t.len() {
                    matched[j] = matched[j] || matched[j - 1];
                }
            }
            '_' => {
                for j in (1..=t.len()).rev() {
                    matched[j] = matched[j - 1];
                }
                matched[0] = false;
            }
            c => {
                for j in (1..=t.len()).rev() {
                    matched[j] = matched[j - 1] && t[j - 1] == *c;
                }
                matched[0] = false;
            }
        }
    }
    matched[t.len()]
}

/// Materialises a `paradise.*` table, then applies the statement's
/// WHERE / projection / ORDER BY with the row-at-a-time evaluator — so
/// `where name like 'wal%'` composes with the catalog exactly as with a
/// stored table.
fn catalog_scan(
    db: &Paradise,
    table: crate::catalog::CatalogTable,
    stmt: &SelectStmt,
) -> Result<QueryResult> {
    let t0 = std::time::Instant::now();
    let schema = table.schema();
    let eval = RowEval::bind(stmt, &schema)?;
    let mut m = QueryMetrics::default();
    let mut rows = Vec::new();
    for t in crate::catalog::scan(db, table, &mut m)? {
        rows.extend(eval.apply(&t)?);
    }
    let mut result = eval.finish(rows, m)?;
    result.metrics.wall = t0.elapsed();
    Ok(result)
}

fn compare_values(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    use std::cmp::Ordering;
    Ok(match (l, r) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Date(a), Value::Date(b)) => a.cmp(b),
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            let (a, b) = (l.as_float()?, r.as_float()?);
            a.partial_cmp(&b).unwrap_or(Ordering::Equal)
        }
        _ => return Err(err(format!("cannot compare {} with {}", l.kind(), r.kind()))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(q: &str) -> SelectStmt {
        paradise_sql::parse_select(q).unwrap()
    }

    #[test]
    fn eval_const_literals_and_constructors() {
        assert_eq!(eval_const(&Expr::Int(5)).unwrap(), Value::Int(5));
        assert_eq!(eval_const(&Expr::Float(2.5)).unwrap(), Value::Float(2.5));
        let date = eval_const(&Expr::Call {
            func: "Date".into(),
            args: vec![Expr::Str("1988-04-01".into())],
        })
        .unwrap();
        assert_eq!(date, Value::Date(Date::from_ymd(1988, 4, 1)));
        let pt = eval_const(&Expr::Call {
            func: "point".into(),
            args: vec![Expr::Int(3), Expr::Float(4.5)],
        })
        .unwrap();
        assert_eq!(pt, Value::from(Shape::Point(Point::new(3.0, 4.5))));
    }

    #[test]
    fn eval_const_polygon_and_circle() {
        let poly = eval_const(&Expr::Call {
            func: "Polygon".into(),
            args: vec![
                Expr::Int(0),
                Expr::Int(0),
                Expr::Int(2),
                Expr::Int(0),
                Expr::Int(1),
                Expr::Int(2),
            ],
        })
        .unwrap();
        let Ok(Shape::Polygon(p)) = poly.as_shape() else { panic!() };
        assert_eq!(p.num_points(), 3);
        // ClosedPolygon wraps a nested polygon.
        let wrapped = eval_const(&Expr::Call {
            func: "ClosedPolygon".into(),
            args: vec![Expr::Call {
                func: "Polygon".into(),
                args: vec![
                    Expr::Int(0),
                    Expr::Int(0),
                    Expr::Int(1),
                    Expr::Int(0),
                    Expr::Int(0),
                    Expr::Int(1),
                ],
            }],
        })
        .unwrap();
        assert!(matches!(wrapped.as_shape(), Ok(Shape::Polygon(_))));
        // bad arity
        assert!(
            eval_const(&Expr::Call { func: "Polygon".into(), args: vec![Expr::Int(1)] }).is_err()
        );
        assert!(eval_const(&Expr::Call { func: "NoSuch".into(), args: vec![] }).is_err());
    }

    #[test]
    fn find_cmp_matches_either_side_and_alias() {
        let s = parse("select * from landCover where 7 = LCPYTYPE and x >= 3");
        assert!(find_cmp(&s, "type", BinOp::Eq).is_some(), "alias + flipped =");
        assert!(find_cmp(&s, "x", BinOp::Ge).is_some());
        assert!(find_cmp(&s, "x", BinOp::Le).is_none());
    }

    #[test]
    fn find_clip_polygon_in_projection_and_where() {
        let s = parse(
            "select raster.data.clip(Polygon(0, 0, 1, 0, 0, 1)) from raster where channel = 5",
        );
        let p = find_clip_polygon(&s).unwrap().unwrap();
        assert_eq!(p.num_points(), 3);
        let s = parse(
            "select raster.date from raster \
             where raster.data.clip(Polygon(0, 0, 1, 0, 0, 1)).average() > 10",
        );
        assert!(find_clip_polygon(&s).is_some());
        assert_eq!(find_average_threshold(&s), Some(10.0));
    }

    #[test]
    fn find_make_box_and_closest_point() {
        let s = parse(
            "select a from landCover, populatedPlaces \
             where landCover.shape overlaps populatedPlaces.location.makeBox(2.5)",
        );
        assert_eq!(find_make_box_len(&s), Some(2.5));
        let s = parse("select closest(shape, Point(1, 2)), type from roads group by type");
        let p = find_closest_point(&s).unwrap().unwrap();
        assert_eq!(p, Point::new(1.0, 2.0));
    }

    #[test]
    fn compare_values_cross_numeric() {
        use std::cmp::Ordering::*;
        assert_eq!(compare_values(&Value::Int(2), &Value::Float(2.5)).unwrap(), Less);
        assert_eq!(compare_values(&Value::Float(3.0), &Value::Int(3)).unwrap(), Equal);
        assert_eq!(
            compare_values(&Value::Str("b".into()), &Value::Str("a".into())).unwrap(),
            Greater
        );
        assert!(compare_values(&Value::Int(1), &Value::Str("x".into())).is_err());
    }

    #[test]
    fn like_match_globs() {
        assert!(like_match("wal%", "wal.commits"));
        assert!(like_match("%commits", "wal.commits"));
        assert!(like_match("%al.c%", "wal.commits"));
        assert!(like_match("wal.commit_", "wal.commits"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("wal%", "buffer.hits"));
        assert!(!like_match("_", ""));
        assert!(!like_match("wal.commit_", "wal.commit"));
        assert!(!like_match("WAL%", "wal.commits"), "LIKE is case-sensitive");
    }

    #[test]
    fn catalog_tables_match_to_catalog_plans() {
        let s = parse("select * from paradise.metrics where name like 'wal%'");
        let plan = match_plan(&s).unwrap();
        assert_eq!(plan.name(), "CatalogScan");
        assert!(matches!(plan, Plan::Catalog { table: crate::catalog::CatalogTable::Metrics, .. }));
        assert!(match_plan(&parse("select * from paradise.nope")).is_err());
        // Non-catalog dotted-ish names still take the generic path.
        assert!(matches!(
            match_plan(&parse("select * from roads")).unwrap(),
            Plan::GenericScan { .. }
        ));
    }

    #[test]
    fn find_area_bound_and_overlaps_const() {
        let s = parse(
            "select shape.area() from landCover \
             where shape < Circle(Point(0, 0), 5) and shape.area() < 7.5",
        );
        assert_eq!(find_area_bound(&s), Some(7.5));
        let s = parse("select * from landCover where shape overlaps Rect(0, 0, 5, 5)");
        assert!(find_overlaps_const(&s).is_some());
        let s = parse("select * from drainage, roads where drainage.shape overlaps roads.shape");
        assert!(find_overlaps_const(&s).is_none(), "column rhs is not a constant");
    }
}
