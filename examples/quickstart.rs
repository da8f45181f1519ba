//! Quickstart: create a 4-node Paradise cluster, define a table with a
//! spatial attribute, load it, and query it with the extended SQL dialect.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use paradise::{Paradise, ParadiseConfig};
use paradise_exec::schema::{DataType, Field, Schema};
use paradise_exec::value::Value;
use paradise_exec::{Decluster, TableDef, Tuple};
use paradise_geom::{Point, Shape};

fn main() {
    let dir = std::env::temp_dir().join("paradise-quickstart");
    let mut db = Paradise::create(ParadiseConfig::new(dir, 4)).expect("create cluster");

    // DDL: a table of cities, spatially declustered on its point column.
    db.define_table(TableDef::new(
        "cities",
        Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("population", DataType::Int),
            Field::new("location", DataType::Point),
        ]),
        Decluster::Spatial { col: 2 },
    ));

    // Load a handful of cities.
    let cities = [
        ("Madison", 270_000, -89.4, 43.1),
        ("Phoenix", 1_600_000, -112.1, 33.4),
        ("Louisville", 620_000, -85.8, 38.3),
        ("Quito", 1_800_000, -78.5, -0.2),
        ("Perth", 2_100_000, 115.9, -31.9),
    ];
    db.load_table(
        "cities",
        cities.iter().map(|&(name, pop, x, y)| {
            Tuple::new(vec![
                Value::Str(name.into()),
                Value::Int(pop),
                Value::from(Shape::Point(Point::new(x, y))),
            ])
        }),
    )
    .expect("load");
    db.commit().expect("commit");

    // Query with the extended SQL dialect (generic scan-filter-project).
    let result =
        db.sql("select name, population from cities where population > 1000000").expect("query");
    println!("big cities ({} rows):", result.rows.len());
    for row in &result.rows {
        println!(
            "  {:<12} {}",
            row.get(0).unwrap().as_str().unwrap(),
            row.get(1).unwrap().as_int().unwrap()
        );
    }
    // The per-phase cost breakdown (`QueryMetrics` implements `Display`).
    println!("\n{}", result.metrics);
}
