//! EXPLAIN / EXPLAIN ANALYZE integration: the rendered operator trees,
//! the consistency of their annotations with the query's actual result,
//! and the Chrome-trace profile.

use paradise::{match_plan, Paradise, ParadiseConfig, QueryResult};
use paradise_datagen::tables::{
    drainage_table, land_cover_table, populated_places_table, raster_table, roads_table, World,
    WorldSpec,
};
use paradise_sql::parse_statement;
use std::path::PathBuf;

const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("paradise-explain-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build_db(tag: &str, trace: Option<&PathBuf>) -> Paradise {
    let mut cfg = ParadiseConfig::new(fresh_dir(tag), 2).with_grid_tiles(256).with_pool_pages(512);
    if let Some(t) = trace {
        cfg = cfg.with_trace(t);
    }
    let mut db = Paradise::create(cfg).expect("create cluster");
    let world = World::generate(WorldSpec::tiny(7));
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(populated_places_table());
    db.define_table(land_cover_table());
    db.load_table("raster", world.rasters.iter().cloned()).expect("load rasters");
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).expect("load places");
    db.load_table("landCover", world.land_cover.iter().cloned()).expect("load landCover");
    db.create_rtree_index("landCover", 2).expect("landCover rtree");
    db.commit().expect("commit");
    db
}

fn plan_lines(r: &QueryResult) -> Vec<String> {
    assert_eq!(r.columns, vec!["QUERY PLAN"]);
    r.rows.iter().map(|t| t.get(0).unwrap().as_str().unwrap().to_string()).collect()
}

fn q2_sql(prefix: &str) -> String {
    format!(
        "{prefix}select raster.date, raster.data.clip({US}) \
         from raster where raster.channel = 5 order by date"
    )
}

#[test]
fn explain_renders_plan_without_executing() {
    let db = build_db("plan", None);
    let r = db.sql(&q2_sql("explain ")).expect("explain q2");
    let lines = plan_lines(&r);
    assert!(lines[0].contains("Q2 plan"), "header: {:?}", lines[0]);
    assert!(lines.iter().any(|l| l.contains("SeqScan raster")), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("Clip + Project")), "{lines:?}");
    // Not executed: no phases were measured and no annotations rendered.
    assert!(r.metrics.phases.is_empty());
    assert!(!lines.iter().any(|l| l.contains("rows=")), "{lines:?}");
}

#[test]
fn explain_analyze_annotations_match_execution() {
    let trace =
        std::env::temp_dir().join(format!("paradise-explain-{}.trace.json", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let db = build_db("analyze", Some(&trace));

    // Ground truth: run Q2 normally first.
    let plain = db.sql(&q2_sql("")).expect("q2");
    let r = db.sql(&q2_sql("explain analyze ")).expect("explain analyze q2");
    let lines = plan_lines(&r);
    assert!(lines[0].contains("Q2 plan"), "{:?}", lines[0]);

    // The clip operator's row annotation equals the query's result size.
    let clip = lines.iter().find(|l| l.contains("Clip + Project")).expect("clip line");
    assert!(
        clip.contains(&format!("rows={}", plain.rows.len())),
        "clip annotation {clip:?} vs {} result rows",
        plain.rows.len()
    );
    assert!(clip.contains("busy="), "{clip:?}");
    // Rasters come off disk through the buffer pool: non-zero counters.
    assert!(clip.contains("buf="), "{clip:?}");
    // The metrics carried back are the real execution's.
    assert_eq!(r.metrics.phases.len(), plain.metrics.phases.len());
    assert!(lines.iter().any(|l| l.contains("result rows:")), "{lines:?}");

    // Valid, non-empty Chrome trace: one complete event per node per
    // phase, plus lane-name metadata.
    let json = std::fs::read_to_string(&trace).expect("trace written");
    // Chrome's JSON array format.
    assert!(json.trim_start().starts_with('['), "{}", &json[..40.min(json.len())]);
    assert!(json.trim_end().ends_with(']'), "unterminated trace");
    assert!(json.contains("\"ph\":\"X\""), "no complete events");
    assert!(json.contains("\"ph\":\"M\""), "no lane metadata");
    assert!(json.contains("scan + clip rasters"));
    assert!(json.contains("node 0"));
    // Tracing is switched back off after EXPLAIN ANALYZE: a plain query
    // afterwards adds no events.
    let before = db.cluster().trace().len();
    db.sql(&q2_sql("")).expect("q2 again");
    assert_eq!(db.cluster().trace().len(), before, "tracing left enabled");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn explain_analyze_q6_counts_index_work() {
    let db = build_db("q6", None);
    let sql = format!("select * from landCover where shape overlaps {US}");
    let plain = db.sql(&sql).expect("q6");
    let visits0 = db.obs().get("rtree.node_visits").unwrap_or(0);
    let r = db.sql(&format!("explain analyze {sql}")).expect("explain analyze q6");
    let lines = plan_lines(&r);
    assert!(lines[0].contains("Q6 plan"), "{:?}", lines[0]);
    let scan = lines.iter().find(|l| l.contains("RTreeIndexScan")).expect("index scan line");
    assert!(scan.contains(&format!("rows={}", plain.rows.len())), "{scan:?}");
    // The R-tree visit counter in the registry moved while the index scan
    // ran.
    let visits1 = db.obs().get("rtree.node_visits").unwrap_or(0);
    assert!(visits1 > visits0, "rtree.node_visits did not move: {visits0} -> {visits1}");
}

#[test]
fn explain_analyze_q13_reports_measured_wall_beside_modelled_busy() {
    let mut db =
        Paradise::create(ParadiseConfig::new(fresh_dir("q13"), 4).with_grid_tiles(256)).unwrap();
    let world = World::generate(WorldSpec::tiny(7));
    db.define_table(drainage_table());
    db.define_table(roads_table());
    db.load_table("drainage", world.drainage.iter().cloned()).expect("load drainage");
    db.load_table("roads", world.roads.iter().cloned()).expect("load roads");
    let sql = "select * from drainage, roads where drainage.shape overlaps roads.shape";
    let r = db.sql(&format!("explain analyze {sql}")).expect("explain analyze q13");
    let lines = plan_lines(&r);
    let join = lines.iter().find(|l| l.contains("PBSMJoin")).expect("join line");
    assert!(join.contains("busy=") && join.contains("(model)"), "{join:?}");
    assert!(join.contains("wall=") && join.contains("(measured)"), "{join:?}");
    // The phase's wall time spans every fragment, so it is at least the
    // slowest node's busy time; with fragments overlapping it stays below
    // the summed work plus the dispatch around it.
    let phase = r.metrics.phases.iter().find(|p| p.name == "local spatial join").unwrap();
    assert_eq!(phase.node_busy.len(), 4);
    assert!(phase.wall >= phase.critical(), "wall {:?} < busy {:?}", phase.wall, phase.critical());
    assert!(phase.wall > std::time::Duration::ZERO);
    // The metrics table prints it too, in its own measured column.
    let header = lines.iter().find(|l| l.starts_with("phase")).expect("metrics header");
    assert!(header.contains("wall(meas)"), "{header:?}");
}

#[test]
fn plan_matcher_names_the_benchmark_shapes() {
    for (sql, want) in [
        (q2_sql(""), "Q2"),
        (format!("select * from landCover where shape overlaps {US}"), "Q6"),
        ("select * from populatedPlaces where name = \"Phoenix\"".to_string(), "Q5"),
        ("select id from drainage where type = 3".to_string(), "GenericScan"),
        (
            "select * from drainage, roads where drainage.shape overlaps roads.shape".to_string(),
            "Q13",
        ),
    ] {
        let stmt = parse_statement(&sql).expect("parse");
        let plan = match_plan(&stmt.select).expect("match");
        assert_eq!(plan.name(), want, "{sql}");
    }
}
