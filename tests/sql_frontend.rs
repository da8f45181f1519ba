//! The paper's SQL texts (§3.1.2), run verbatim through the SQL front end,
//! must produce the same results as the programmatic plans.

use paradise::queries;
use paradise::sql::parse_statement;
use paradise::{match_plan, Paradise, ParadiseConfig, TransportKind};
use paradise_datagen::tables::{
    self, drainage_table, land_cover_table, populated_places_table, raster_table, roads_table,
    World, WorldSpec, OIL_FIELD, QUERY_CHANNEL,
};
use paradise_geom::Point;

fn load(tag: &str) -> (Paradise, World) {
    load_over(tag, TransportKind::Local)
}

fn load_over(tag: &str, transport: TransportKind) -> (Paradise, World) {
    let world = World::generate(WorldSpec::paper_ratio(9, 1, 5000));
    let dir = std::env::temp_dir().join(format!("paradise-it-sql-{}-{tag}", std::process::id()));
    let cfg = ParadiseConfig::new(dir, 4).with_grid_tiles(1024).with_transport(transport);
    let mut db = Paradise::create(cfg).unwrap();
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(populated_places_table());
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());
    db.load_table("raster", world.rasters.iter().cloned()).unwrap();
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).unwrap();
    db.load_table("roads", world.roads.iter().cloned()).unwrap();
    db.load_table("drainage", world.drainage.iter().cloned()).unwrap();
    db.load_table("landCover", world.land_cover.iter().cloned()).unwrap();
    db.create_btree_index("populatedPlaces", 4).unwrap();
    db.create_rtree_index("landCover", 2).unwrap();
    db.create_rtree_index("roads", 2).unwrap();
    db.create_rtree_index("drainage", 2).unwrap();
    db.commit().unwrap();
    (db, world)
}

const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";

#[test]
fn sql_matches_programmatic_plans() {
    let (db, _world) = load("match");
    let us = tables::us_polygon();
    let d = tables::query_date();
    for (name, sql) in paper_statements() {
        let sql = db.sql(&sql).unwrap();
        let api = match name {
            "Q2" => queries::q2(&db, QUERY_CHANNEL, &us),
            "Q3" => {
                assert_eq!(sql.rows.len(), 1, "Q3");
                continue;
            }
            "Q4" => queries::q4(&db, d, QUERY_CHANNEL, &us, 8),
            "Q5" => {
                assert!(!sql.rows.is_empty());
                queries::q5(&db, "Phoenix")
            }
            "Q6" => queries::q6(&db, &us),
            "Q7" => queries::q7(&db, Point::new(-90.0, 40.0), 25.0, 3.0),
            "Q8" => queries::q8(&db, "Louisville", 8.0),
            "Q9" => queries::q9(&db, d, QUERY_CHANNEL, OIL_FIELD),
            "Q10" => queries::q10(&db, &us, 25_000.0),
            "Q11" => queries::q11(&db, Point::new(-89.4, 43.1)),
            "Q12" => queries::q12(&db, 1, true),
            "Q13" => queries::q13(&db),
            "Q14" => {
                let hi = paradise_exec::value::Date::parse("1988-12-31").unwrap();
                queries::q14(&db, d, hi, QUERY_CHANNEL, OIL_FIELD)
            }
            _ => unreachable!("{name}"),
        };
        assert_eq!(sql.rows.len(), api.unwrap().rows.len(), "{name}");
    }
}

#[test]
fn generic_fallback_scan() {
    let (db, world) = load("generic");
    // A query shape the plan matcher does not special-case: generic scan.
    let r = db.sql("select id, type from drainage where type = 3").unwrap();
    let brute = world.drainage.iter().filter(|t| t.get(1).unwrap().as_int().unwrap() == 3).count();
    // Spatial replication may store copies, but the scan visits every copy
    // exactly once per node it lives on; drainage dedup requires distinct
    // ids. Count distinct ids in the result.
    let distinct: std::collections::HashSet<&str> =
        r.rows.iter().map(|t| t.get(0).unwrap().as_str().unwrap()).collect();
    assert_eq!(distinct.len(), brute);
}

#[test]
fn generic_scan_ships_its_rows_to_the_qc() {
    // Like every benchmark plan, the scan's result rows cross from the
    // nodes to the QC endpoint, and both transports charge them alike.
    let sql = "select id, type from drainage where type = 3";
    let mut runs = Vec::new();
    for (tag, transport) in
        [("gather-local", TransportKind::Local), ("gather-tcp", TransportKind::Tcp)]
    {
        let (db, _) = load_over(tag, transport);
        let r = db.sql(sql).unwrap();
        assert!(!r.rows.is_empty(), "{tag}");
        assert_eq!(r.metrics.net_tuples, r.rows.len() as u64, "{tag}: one shipped tuple per row");
        assert!(r.metrics.net_bytes > 0, "{tag}");
        runs.push((r.rows, r.metrics.net_bytes));
    }
    assert!(runs[0] == runs[1], "Local and Tcp differ in rows or net_bytes");
}

#[test]
fn generic_scan_returns_each_replicated_row_once() {
    // Roads and drainage are spatially declustered: a feature whose box
    // spans grid tiles of several nodes is stored on each of them, yet the
    // scan returns it once, under either transport.
    for (tag, transport) in [("once-local", TransportKind::Local), ("once-tcp", TransportKind::Tcp)]
    {
        let (db, world) = load_over(tag, transport);
        let type_of = |t: &paradise_exec::Tuple| t.get(1).unwrap().as_int().unwrap();
        for (sql, table, rows, keep) in [
            (
                "select id, type from drainage where type = 3",
                "drainage",
                &world.drainage,
                (|ty| ty == 3) as fn(i64) -> bool,
            ),
            ("select * from roads where type < 5", "roads", &world.roads, |ty| ty < 5),
        ] {
            let stored = db.table(table).unwrap().stored_count(db.cluster());
            assert!(stored > rows.len() as u64, "{tag}: {table} holds no replicas");
            let brute = rows.iter().filter(|t| keep(type_of(t))).count();
            let r = db.sql(sql).unwrap();
            assert_eq!(r.rows.len(), brute, "{tag}: {sql}");
            assert_eq!(r.metrics.net_tuples, brute as u64, "{tag}: {sql}");
        }
    }
}

#[test]
fn generic_scan_decodes_only_the_rows_where_accepts() {
    // WHERE reads `type` from each record in place; only the accepted
    // rows are decoded whole, and they are the rows a full decode gives.
    let (db, world) = load("decode-matches");
    let decoded =
        || -> u64 { db.cluster().nodes().iter().map(|n| n.obs.get("scan.decoded").unwrap()).sum() };
    let before = decoded();
    let r = db.sql("select id, type from drainage where type = 3").unwrap();
    assert_eq!(decoded() - before, r.rows.len() as u64);
    let mut got: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|t| {
            (t.get(0).unwrap().as_str().unwrap().to_string(), t.get(1).unwrap().as_int().unwrap())
        })
        .collect();
    let mut want: Vec<(String, i64)> = world
        .drainage
        .iter()
        .map(|t| {
            (t.get(0).unwrap().as_str().unwrap().to_string(), t.get(1).unwrap().as_int().unwrap())
        })
        .filter(|(_, ty)| *ty == 3)
        .collect();
    got.sort();
    want.sort();
    assert!(!want.is_empty());
    assert_eq!(got, want);
}

#[test]
fn qualified_columns_must_name_a_from_table_that_has_them() {
    let (db, _) = load("qualifiers");
    let q9 = |oil: &str, channel: &str, date: &str| {
        format!(
            "select landCover.shape, raster.data.clip(landCover.shape) from landCover, raster \
             where {oil} = {OIL_FIELD} and {channel} = 5 and {date} = Date(\"1988-04-01\")"
        )
    };
    // Each of these used to run as the benchmark shape in brackets.
    for (sql, qualified) in [
        (
            // [Q8]
            "select landCover.shape, landCover.LCPYTYPE from landCover, populatedPlaces \
             where landCover.name = \"Louisville\" and \
             landCover.shape overlaps populatedPlaces.location.makeBox(8)"
                .to_string(),
            "landCover.name",
        ),
        // [Q9]
        (q9("raster.LCPYTYPE", "raster.channel", "raster.date"), "raster.LCPYTYPE"),
        (q9("landCover.LCPYTYPE", "landCover.channel", "raster.date"), "landCover.channel"),
        (q9("landCover.LCPYTYPE", "raster.channel", "landCover.date"), "landCover.date"),
        // [Q5]
        ("select * from populatedPlaces where bogus.name = \"Phoenix\"".to_string(), "bogus.name"),
        (
            // [Q2]
            format!(
                "select raster.date, raster.data.clip({US}) from raster \
                 where populatedPlaces.channel = 5 order by date"
            ),
            "populatedPlaces.channel",
        ),
        // [Q6]
        (format!("select * from landCover where roads.shape overlaps {US}"), "roads.shape"),
    ] {
        let e = db.sql(&sql).expect_err(&sql).to_string();
        assert!(e.contains(&format!("`{qualified}`")), "{sql}: {e}");
    }
    // The paper's spelling of landCover's type still binds Q9.
    let q9 = db.sql(&q9("landCover.LCPYTYPE", "raster.channel", "raster.date")).unwrap();
    let api = queries::q9(&db, tables::query_date(), QUERY_CHANNEL, OIL_FIELD).unwrap();
    assert_eq!(q9.rows.len(), api.rows.len());
}

#[test]
fn sql_errors_are_reported() {
    let (db, _) = load("err");
    assert!(db.sql("selec nonsense").is_err());
    assert!(db.sql("select * from no_such_table").is_err());
    assert!(db.sql("select * from drainage where type = \"not an int comparison\" and").is_err());
}

#[test]
fn shape_matchers_reject_conjuncts_their_plans_do_not_evaluate() {
    let (db, _) = load("conjuncts");
    for (sql, conjunct) in [
        // Q13 used to return the whole overlap join.
        ("select * from drainage, roads where drainage.type = 123456", "`drainage.type = 123456`"),
        (
            "select * from drainage, roads where drainage.shape overlaps roads.shape \
             and roads.type = 2",
            "`roads.type = 2`",
        ),
        // Q11 used to return one row per type.
        (
            "select closest(shape, Point(-89.4, 43.1)), type from roads \
             where type = 999999 group by type",
            "`type = 999999`",
        ),
        // Q12's join only evaluates the city-type selection.
        (
            "select closest(drainage.shape, populatedPlaces.location), \
             populatedPlaces.location from drainage, populatedPlaces \
             where populatedPlaces.type = 1 and drainage.type = 4 \
             group by populatedPlaces.location",
            "`drainage.type = 4`",
        ),
    ] {
        let e = db.sql(sql).expect_err(sql).to_string();
        assert!(e.contains(conjunct), "{sql}: {e}");
    }
    // Q12 without a city type used to mean `type = 1`; Q13 without the
    // overlap predicate is a cross product, not the overlap join.
    for (sql, want) in [
        (
            "select closest(drainage.shape, populatedPlaces.location), \
             populatedPlaces.location from drainage, populatedPlaces \
             where populatedPlaces.location overlaps drainage.shape \
             group by populatedPlaces.location",
            "populatedPlaces.type = N",
        ),
        ("select * from drainage, roads", "drainage.shape overlaps roads.shape"),
    ] {
        let e = db.sql(sql).expect_err(sql).to_string();
        assert!(e.contains(want), "{sql}: {e}");
    }
    // The paper's statements, with either operand order, still match.
    let q13 = db.sql("select * from drainage, roads where roads.shape overlaps drainage.shape");
    assert_eq!(q13.unwrap().rows.len(), queries::q13(&db).unwrap().rows.len());
    let q12 = db
        .sql(
            "select closest(drainage.shape, populatedPlaces.location), \
             populatedPlaces.location from drainage, populatedPlaces \
             where 2 = populatedPlaces.type group by populatedPlaces.location",
        )
        .unwrap();
    assert_eq!(q12.rows.len(), queries::q12(&db, 2, true).unwrap().rows.len());
}

#[test]
fn every_matched_shape_rejects_a_conjunct_it_does_not_evaluate() {
    let (db, _) = load("dropped");
    let q2 = format!(
        "select raster.date, raster.data.clip({US}) from raster \
         where raster.channel = 5 and raster.date = Date(\"1900-01-01\") order by date"
    );
    let q5 = "select * from populatedPlaces where name = \"Phoenix\" and type = 999999";
    let q6 = format!("select * from landCover where shape overlaps {US} and type = 999999");
    let q7 = "select shape.area(), LCPYTYPE from landCover \
              where shape < Circle(Point(-90, 40), 25) and shape.area() < 3 and type = 999999";
    // Q2 returned every channel-5 raster, Q5 Phoenix, Q6 and Q7 their
    // unfiltered land cover.
    for (sql, conjunct) in [
        (q2.as_str(), "`raster.date = Date(\"1900-01-01\")`"),
        (q5, "`type = 999999`"),
        (q6.as_str(), "`type = 999999`"),
        (q7, "`type = 999999`"),
    ] {
        let e = db.sql(sql).expect_err(sql).to_string();
        assert!(e.contains(conjunct), "{sql}: {e}");
    }
    // A second binding of a parameter is dropped just the same.
    for sql in [
        format!(
            "select raster.date, raster.data.clip({US}) from raster \
             where raster.channel = 5 and raster.channel = 4"
        ),
        format!(
            "select landCover.shape, raster.data.clip(landCover.shape) from landCover, raster \
             where landCover.LCPYTYPE = {OIL_FIELD} and raster.channel = 5 and \
             raster.date = Date(\"1988-04-01\") and raster.date = Date(\"1988-05-01\")"
        ),
        "select shape.area() from landCover \
         where shape < Circle(Point(-90, 40), 25) and shape.area() < 3 and shape.area() < 1"
            .to_string(),
    ] {
        let e = db.sql(&sql).expect_err(&sql).to_string();
        assert!(e.contains("does not evaluate the WHERE conjunct"), "{sql}: {e}");
    }
}

#[test]
fn scans_order_by_the_named_column() {
    let (db, _) = load("order");
    // Ints compare numerically, strings bytewise.
    let sorted_on = |rows: &[paradise_exec::Tuple], col: usize| {
        let key = |t: &paradise_exec::Tuple| match t.get(col).unwrap() {
            paradise_exec::Value::Int(i) => (*i, String::new()),
            v => (0, v.as_str().unwrap().to_string()),
        };
        rows.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
    };
    // The ORDER BY column is not the first one projected.
    let r = db.sql("select name, type from populatedPlaces order by type").unwrap();
    let unsorted = db.sql("select name, type from populatedPlaces").unwrap();
    assert!(r.rows.len() > 1);
    assert!(sorted_on(&r.rows, 1), "rows not in type order");
    let key = |rows: &[paradise_exec::Tuple]| {
        let mut v: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(key(&r.rows), key(&unsorted.rows), "sorting changed the row set");
    let star = db.sql("select * from populatedPlaces order by type").unwrap();
    let type_col = star.columns.iter().position(|c| c == "type").unwrap();
    assert!(sorted_on(&star.rows, type_col));
    // The catalog scan sorts the same way.
    let m = db.sql("select value, name from paradise.metrics order by name").unwrap();
    assert!(m.rows.len() > 1);
    assert!(sorted_on(&m.rows, 1), "metrics not in name order");
    // An ORDER BY column outside the select list is a bind error.
    for sql in [
        "select name from populatedPlaces order by type",
        "select value from paradise.metrics order by name",
        "select * from populatedPlaces order by no_such_column",
    ] {
        assert!(db.sql(sql).is_err(), "{sql}");
    }
    // A matched shape does not drop an ORDER BY it does not compute.
    let e = db.sql(&format!("select * from landCover where shape overlaps {US} order by type"));
    assert!(e.expect_err("Q6 order by").to_string().contains("ORDER BY type"));
}

#[test]
fn group_by_outside_the_closest_shapes_is_an_error() {
    let (db, _) = load("group");
    for sql in [
        "select name, type from populatedPlaces group by type",
        "select value, name from paradise.metrics group by name",
        &format!("select * from landCover where shape overlaps {US} group by type"),
        // Q11 groups by type and nothing else.
        "select closest(shape, Point(-89.4, 43.1)), type from roads group by name",
        "select closest(shape, Point(-89.4, 43.1)), type from roads",
    ] {
        let e = db.sql(sql).expect_err(sql).to_string();
        assert!(e.contains("GROUP BY"), "{sql}: {e}");
    }
    let q11 = db.sql("select closest(shape, Point(-89.4, 43.1)), type from roads group by type");
    assert_eq!(
        q11.unwrap().rows.len(),
        queries::q11(&db, Point::new(-89.4, 43.1)).unwrap().rows.len()
    );
}

#[test]
fn lower_res_factor_must_be_one_positive_integer_literal() {
    let (db, _) = load("lowres");
    let q4 = |factor: &str| {
        format!(
            "select raster.date, raster.channel, \
             raster.data.clip(ClosedPolygon({US})).lower_res({factor}) from raster \
             where raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
        )
    };
    for factor in ["4.0", "-2", "0", "8, 2", ""] {
        let e = db.sql(&q4(factor)).expect_err(factor).to_string();
        assert!(e.contains("positive integer"), "lower_res({factor}): {e}");
    }
    // The factor that was written is the factor that runs.
    for factor in [4, 8] {
        let plan = db.sql(&format!("explain {}", q4(&factor.to_string()))).unwrap();
        let text: Vec<String> =
            plan.rows.iter().map(|t| t.get(0).unwrap().as_str().unwrap().to_string()).collect();
        assert!(text.iter().any(|l| l.contains(&format!("lower_res({factor})"))), "{text:?}");
    }
}

/// The paper's Q2–Q14 texts (§3.1.2), with the plan each must match.
fn paper_statements() -> Vec<(&'static str, String)> {
    vec![
        (
            "Q2",
            format!(
                "select raster.date, raster.data.clip({US}) from raster \
                 where raster.channel = 5 order by date"
            ),
        ),
        (
            "Q3",
            format!(
                "select average(raster.data.clip({US})) from raster \
                 where raster.date = Date(\"1988-04-01\")"
            ),
        ),
        (
            "Q4",
            format!(
                "select raster.date, raster.channel, \
                 raster.data.clip(ClosedPolygon({US})).lower_res(8) from raster \
                 where raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
            ),
        ),
        ("Q5", "select * from populatedPlaces where name = \"Phoenix\"".to_string()),
        ("Q6", format!("select * from landCover where shape overlaps {US}")),
        (
            "Q7",
            "select shape.area(), LCPYTYPE from landCover \
             where shape < Circle(Point(-90, 40), 25) and shape.area() < 3"
                .to_string(),
        ),
        (
            "Q8",
            "select landCover.shape, landCover.LCPYTYPE from landCover, populatedPlaces \
             where populatedPlaces.name = \"Louisville\" and \
             landCover.shape overlaps populatedPlaces.location.makeBox(8)"
                .to_string(),
        ),
        (
            "Q9",
            format!(
                "select landCover.shape, raster.data.clip(landCover.shape) \
                 from landCover, raster where landCover.LCPYTYPE = {OIL_FIELD} and \
                 raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
            ),
        ),
        (
            "Q10",
            format!(
                "select raster.date, raster.channel, raster.data.clip({US}) from raster \
                 where raster.data.clip({US}).average() > 25000"
            ),
        ),
        (
            "Q11",
            "select closest(shape, Point(-89.4, 43.1)), type from roads group by type".to_string(),
        ),
        (
            "Q12",
            "select closest(drainage.shape, populatedPlaces.location), \
             populatedPlaces.location from drainage, populatedPlaces \
             where populatedPlaces.location overlaps drainage.shape and \
             populatedPlaces.type = 1 group by populatedPlaces.location"
                .to_string(),
        ),
        ("Q13", "select * from drainage, roads where drainage.shape overlaps roads.shape".into()),
        (
            "Q14",
            format!(
                "select landCover.shape, raster.data.clip(landCover.shape) from landCover, raster \
                 where landCover.LCPYTYPE = {OIL_FIELD} and raster.channel = 5 and \
                 raster.date >= Date(\"1988-04-01\") and raster.date <= Date(\"1988-12-31\")"
            ),
        ),
    ]
}

/// `EXPLAIN ANALYZE` renders the plan that runs: every operator line that
/// names a phase was executed, every phase the query recorded annotates a
/// line, and the access paths name the scan or index the code takes.
#[test]
fn explain_analyze_renders_the_access_path_that_runs() {
    let (db, _world) = load("explain");
    for (name, sql) in paper_statements() {
        let plan = match_plan(&parse_statement(&sql).unwrap().select).unwrap();
        assert_eq!(plan.name(), name, "{sql}");
        let r = db.sql(&format!("explain analyze {sql}")).unwrap();
        let lines: Vec<String> =
            r.rows.iter().map(|t| t.get(0).unwrap().as_str().unwrap().to_string()).collect();
        assert!(!lines.iter().any(|l| l.contains("[not executed]")), "{name}: {lines:#?}");
        assert!(!r.metrics.phases.is_empty(), "{name} recorded no phase");
        let tree = plan.describe();
        for phase in &r.metrics.phases {
            assert!(
                tree.iter().any(|l| l.phase == Some(phase.name.as_str())),
                "{name}: phase {:?} annotates no line: {lines:#?}",
                phase.name
            );
        }
        let access = match name {
            "Q7" => "RTreeIndexScan landCover",
            "Q8" => "BTreeIndexScan populatedPlaces",
            "Q11" => "SeqScan roads",
            _ => continue,
        };
        assert!(lines.iter().any(|l| l.contains(access)), "{name}: {lines:#?}");
    }
}
