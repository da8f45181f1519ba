//! One benchmark run: set up, measure a closed loop of one client, check
//! every answer, and report end-to-end (untraced) or per-layer (traced)
//! metrics.

use crate::calib::Calibrator;
use crate::oracle::{answer_keys, row_digest, verify, Answer, Oracle};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    self, ingest_batch, sequoia_pass, BrowseStream, Check, Stmt, Workload, BROWSE_TEMPLATES, NODES,
    TILE_BYTES,
};
use paradise::exec::metrics::QueryMetrics;
use paradise::exec::raster_store::TILE_FILE;
use paradise::exec::table::LoadStats;
use paradise::exec::value::Value;
use paradise::geom::{Circle, Rect};
use paradise::obs::Counter;
use paradise::queries::{LC_SHAPE, LINE_ID, LINE_SHAPE, PP_LOC, PP_NAME};
use paradise::{Paradise, TransportKind};
use paradise_datagen::tables::{raster_table, roads_table, World};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Browse statements run before measuring, so the pool is warm.
const WARMUP_OPS: usize = 200;
/// `space_amp` and `storage.volume_bytes` are read after this many
/// measured operations (one Sequoia pass), so they do not depend on speed.
const SPACE_OPS: u64 = 13;
/// Where runs keep their instances and traces, relative to the checkout.
pub const WORK_DIR: &str = ".bench_e2e";

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the world and the statement stream.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    /// Every answer matched the oracle (and, under Tcp, the Local rows).
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Context printed with the result (a JSON object body).
    pub detail: Vec<(String, String)>,
}

/// Removes a directory tree when dropped.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One measured operation.
struct OpRec {
    template: &'static str,
    ok: bool,
    /// Client-side latency.
    ns: u64,
    /// Position of the host-speed kernel run just before the operation.
    calib: usize,
    /// `Paradise::sql` time minus the `QueryMetrics::wall` it returned.
    frontend_ns: Option<u64>,
    /// Kept only in traced runs, so memory does not grow with throughput.
    metrics: Option<Box<QueryMetrics>>,
    /// Rows loaded and stored (ingest).
    loaded: Option<(u64, u64)>,
}

/// Counters summed over the node-labelled groups of `Cluster::all_samples`,
/// and the coordinator's own group.
#[derive(Default)]
struct Sample {
    nodes: BTreeMap<String, u64>,
    qc: BTreeMap<String, u64>,
}

impl Sample {
    fn take(db: &Paradise) -> Sample {
        let mut s = Sample::default();
        for (label, samples) in db.cluster().all_samples() {
            let map = if label == "qc" { &mut s.qc } else { &mut s.nodes };
            for m in samples {
                *map.entry(m.name).or_default() += m.value;
            }
        }
        s
    }

    /// `later - self`, counter by counter.
    fn until(&self, later: &Sample) -> Sample {
        let diff = |a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>| {
            b.iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(a.get(k).copied().unwrap_or(0))))
                .collect()
        };
        Sample { nodes: diff(&self.nodes, &later.nodes), qc: diff(&self.qc, &later.qc) }
    }

    fn node(&self, name: &str) -> f64 {
        self.nodes.get(name).copied().unwrap_or(0) as f64
    }

    fn qc(&self, name: &str) -> f64 {
        self.qc.get(name).copied().unwrap_or(0) as f64
    }
}

/// Records of one measured phase.
#[derive(Default)]
struct Phase {
    ops: Vec<OpRec>,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    fn ok(&self) -> impl Iterator<Item = &OpRec> {
        self.ops.iter().filter(|o| o.ok)
    }

    /// `(ok, latency in ns)` of every operation of `per_op` consecutive
    /// statements (ok when all are): raw, or scaled to the reference host
    /// by the kernel `scales` of [`Calibrator::scales`].
    fn op_ns(&self, per_op: usize, scales: Option<&[f64]>) -> Vec<(bool, f64)> {
        let scale = |o: &OpRec| scales.and_then(|s| s.get(o.calib)).copied().unwrap_or(1.0);
        self.ops
            .chunks(per_op)
            .map(|c| (c.iter().all(|o| o.ok), c.iter().map(|o| o.ns as f64 * scale(o)).sum()))
            .collect()
    }

    fn latencies_ms(&self, per_op: usize, scales: Option<&[f64]>) -> Vec<f64> {
        self.op_ns(per_op, scales).into_iter().filter(|o| o.0).map(|o| o.1 / 1e6).collect()
    }

    /// Completed operations per second of client time spent in
    /// operations, measured over consecutive windows of `window`
    /// operations; the median window is reported.
    fn ops_per_s(&self, per_op: usize, window: usize, scales: Option<&[f64]>) -> f64 {
        let rate = |ops: &[(bool, f64)]| {
            let busy: f64 = ops.iter().map(|o| o.1).sum();
            ops.iter().filter(|o| o.0).count() as f64 / (busy / 1e9).max(1e-9)
        };
        let ops = self.op_ns(per_op, scales);
        if ops.len() < 2 * window {
            return rate(&ops);
        }
        let rates: Vec<f64> = ops.chunks_exact(window).map(rate).collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Mean over completed statements of a `QueryMetrics` reading.
    fn qm_mean(&self, f: impl Fn(&QueryMetrics) -> f64) -> f64 {
        let v: Vec<f64> = self.ok().filter_map(|o| o.metrics.as_deref()).map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

struct Runner<'w> {
    opts: Opts,
    db: Paradise,
    world: &'w World,
    oracle: Oracle<'w>,
    dir: PathBuf,
    tracer: Tracer,
    next_op: u64,
    /// Expected answers and (Tcp) Local row digests of the Sequoia pass.
    pass: Vec<(Stmt, Answer, Option<u64>)>,
    browse: Option<BrowseStream>,
    errors: BTreeMap<String, u64>,
    wrong: Vec<String>,
    duplicate_rows: u64,
    space_bytes: Option<u64>,
    replay_visits: Counter,
    /// Event log of a traced run (retries, flow stalls).
    events: Option<PathBuf>,
    stored_per_raw: f64,
    /// Host-speed kernel runs of the measured loop.
    calib: Calibrator,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| format!("unresolved {r}")),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

fn live_input_bytes(world: &World) -> u64 {
    [&world.rasters, &world.populated_places, &world.roads, &world.drainage, &world.land_cover]
        .iter()
        .flat_map(|rows| rows.iter())
        .map(|t| t.encode().len() as u64)
        .sum()
}

/// Stored tile bytes per raw raster byte after the world's load.
fn stored_per_raw_byte(db: &Paradise, world: &World) -> paradise::Result<f64> {
    let mut stored = 0u64;
    for node in db.cluster().nodes() {
        if let Some(f) = node.store.file(TILE_FILE) {
            stored += f.scan()?.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        }
    }
    Ok(stored as f64 / world.raster_bytes().max(1) as f64)
}

impl Runner<'_> {
    fn cold(&self) -> bool {
        self.opts.workload.cold()
    }

    /// Runs one statement as one operation and checks its answer.
    fn statement(
        &mut self,
        stmt: &Stmt,
        expected: Option<&Answer>,
        local_digest: Option<u64>,
    ) -> OpRec {
        let id = self.next_op;
        self.next_op += 1;
        let traced = self.tracer.enabled();
        let op = self.tracer.begin("op", id);
        let t0 = Instant::now();
        if traced {
            let s = self.tracer.begin("sql.parse", id);
            let parsed = paradise::sql::parse_statement(&stmt.sql);
            std::hint::black_box(&parsed);
            self.tracer.end(s);
        }
        let mut outcome = Ok(());
        if self.cold() {
            let s = self.tracer.begin("storage.flush", id);
            outcome = self.db.flush_caches();
            self.tracer.end(s);
        }
        let s = self.tracer.begin("core.sql", id);
        let t_sql = Instant::now();
        let result = outcome.and_then(|_| self.db.sql(&stmt.sql));
        let sql_ns = t_sql.elapsed();
        self.tracer.end(s);
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.end(op);

        let mut rec = OpRec {
            template: stmt.template,
            ok: false,
            ns,
            calib: 0,
            frontend_ns: None,
            metrics: None,
            loaded: None,
        };
        match result {
            Err(e) => {
                *self.errors.entry(format!("{}: {e}", stmt.template)).or_default() += 1;
            }
            Ok(r) => {
                rec.ok = true;
                rec.frontend_ns = Some(sql_ns.saturating_sub(r.metrics.wall).as_nanos() as u64);
                self.check_rows(stmt, expected, local_digest, &r.rows);
                rec.metrics = traced.then(|| Box::new(r.metrics));
            }
        }
        if traced && rec.ok {
            if let Err(e) = self.replay_index_calls(stmt, id) {
                self.wrong.push(format!("{}: index replay failed: {e}", stmt.template));
            }
        }
        rec
    }

    fn check_rows(
        &mut self,
        stmt: &Stmt,
        expected: Option<&Answer>,
        local_digest: Option<u64>,
        rows: &[paradise::exec::Tuple],
    ) {
        let got = match answer_keys(&stmt.check, rows) {
            Ok(k) => k,
            Err(e) => {
                self.wrong.push(format!("{}: malformed row: {e}", stmt.template));
                return;
            }
        };
        self.duplicate_rows += rows.len() as u64 - got.len() as u64;
        let computed;
        let expected = match expected {
            Some(a) => a,
            None => {
                computed = self.oracle.expect(&stmt.check);
                &computed
            }
        };
        if let Err(e) = verify(expected, &got) {
            self.wrong.push(format!("{} wrong answer ({}): {e}", stmt.template, stmt.sql));
        }
        if let Some(d) = local_digest {
            if row_digest(rows) != d {
                self.wrong
                    .push(format!("{}: rows differ from the Local transport's", stmt.template));
            }
        }
    }

    /// Replays, per node, the R*-tree calls a browse statement makes:
    /// `TableDef::rtree_index` (`index.open`) and the window search
    /// (`index.probe`). The replayed trees count node visits on a private
    /// counter, so the registry's `rtree.node_visits` sees only the
    /// statements themselves.
    fn replay_index_calls(&mut self, stmt: &Stmt, id: u64) -> paradise::Result<()> {
        let windows: Vec<Rect> = match &stmt.check {
            Check::Q6 { region } if self.opts.workload == Workload::Browse => vec![region.bbox()],
            Check::Q7 { center, radius, .. } if self.opts.workload == Workload::Browse => {
                vec![Circle::new(*center, *radius).map_err(paradise::exec::ExecError::Geom)?.bbox()]
            }
            Check::Q8 { name, box_len } if self.opts.workload == Workload::Browse => self
                .world
                .populated_places
                .iter()
                .filter(|t| t.get(PP_NAME).and_then(Value::as_str).is_ok_and(|n| n == name))
                .filter_map(|t| t.get(PP_LOC).ok()?.as_shape().ok()?.as_point())
                .map(|p| p.make_box(*box_len))
                .collect(),
            _ => return Ok(()),
        };
        let root = self.tracer.begin("replay", id);
        let lc = self.db.table("landCover")?.clone();
        for node in 0..NODES {
            let s = self.tracer.begin("index.open", id);
            let tree = lc.rtree_index(self.db.cluster(), node, LC_SHAPE);
            self.tracer.end(s);
            let mut tree = tree?;
            tree.set_visit_counter(self.replay_visits.clone());
            for w in &windows {
                let s = self.tracer.begin("index.probe", id);
                std::hint::black_box(tree.search(w));
                self.tracer.end(s);
            }
        }
        self.tracer.end(root);
        Ok(())
    }

    /// One ingest operation: define, load, index, commit, drop, commit.
    /// The answer check between the commit and the drop runs under a
    /// `verify` span whose time is not part of the operation's latency.
    fn ingest(&mut self) -> OpRec {
        let id = self.next_op;
        self.next_op += 1;
        let (roads, rasters) = ingest_batch(self.opts.seed, id, self.world);
        let (rname, xname) = (format!("ingest_roads_{id}"), format!("ingest_raster_{id}"));
        let mut rdef = roads_table();
        rdef.name = rname.clone();
        let mut xdef = raster_table().with_tile_bytes(TILE_BYTES);
        xdef.name = xname.clone();
        let ids: HashSet<String> = roads
            .iter()
            .filter_map(|t| Some(t.get(LINE_ID).ok()?.as_str().ok()?.to_string()))
            .collect();
        let (n_roads, n_rasters) = (roads.len() as u64, rasters.len() as u64);

        let op = self.tracer.begin("op", id);
        let t0 = Instant::now();
        let mut verify_time = Duration::ZERO;
        let mut loaded = None;
        let result: paradise::Result<()> = (|| {
            self.db.define_table(rdef);
            self.db.define_table(xdef);
            let s = self.tracer.begin("load.table", id);
            let lr = self.db.load_table(&rname, roads);
            let lx = lr.and_then(|lr| Ok((lr, self.db.load_table(&xname, rasters)?)));
            self.tracer.end(s);
            let (lr, lx) = lx?;
            loaded = Some((lr.input_tuples + lx.input_tuples, lr.stored_tuples + lx.stored_tuples));
            let s = self.tracer.begin("index.build", id);
            let r = self.tracer.begin("index.build.rtree", id);
            let rt = self.db.create_rtree_index(&rname, LINE_SHAPE);
            self.tracer.end(r);
            let b = self.tracer.begin("index.build.btree", id);
            let bt = rt.and_then(|_| self.db.create_btree_index(&rname, LINE_ID));
            self.tracer.end(b);
            self.tracer.end(s);
            bt?;
            let s = self.tracer.begin("storage.commit", id);
            let c = self.db.commit();
            self.tracer.end(s);
            c?;

            let s = self.tracer.begin("verify", id);
            let tv = Instant::now();
            let problem = self.check_ingest(&rname, &xname, &ids, (lr, lx), (n_roads, n_rasters));
            verify_time = tv.elapsed();
            self.tracer.end(s);
            if let Some(p) = problem {
                self.wrong.push(format!("ingest op {id}: {p}"));
            }

            let s = self.tracer.begin("storage.drop", id);
            let dropped = self
                .db
                .table(&rname)
                .and_then(|t| t.drop_table(self.db.cluster()))
                .and_then(|_| self.db.table(&xname)?.drop_table(self.db.cluster()));
            self.tracer.end(s);
            dropped?;
            let s = self.tracer.begin("storage.commit", id);
            let c = self.db.commit();
            self.tracer.end(s);
            c
        })();
        let ns = t0.elapsed().saturating_sub(verify_time).as_nanos() as u64;
        self.tracer.end(op);
        let ok = match result {
            Ok(()) => {
                let left = self
                    .db
                    .cluster()
                    .nodes()
                    .iter()
                    .flat_map(|n| n.store.names())
                    .any(|n| n.contains(&rname) || n.contains(&xname));
                if left {
                    self.wrong.push(format!("ingest op {id}: dropped tables still listed"));
                }
                true
            }
            Err(e) => {
                *self.errors.entry(format!("ingest: {e}")).or_default() += 1;
                false
            }
        };
        OpRec { template: "ingest", ok, ns, calib: 0, frontend_ns: None, metrics: None, loaded }
    }

    /// What is wrong with a committed ingest batch, if anything: load
    /// counts, stored copies, R*-tree sizes and the stored id set.
    fn check_ingest(
        &self,
        rname: &str,
        xname: &str,
        ids: &HashSet<String>,
        (lr, lx): (LoadStats, LoadStats),
        (n_roads, n_rasters): (u64, u64),
    ) -> Option<String> {
        let cluster = self.db.cluster();
        if lr.input_tuples != n_roads || lx.input_tuples != n_rasters {
            return Some(format!(
                "loader saw {} roads / {} rasters",
                lr.input_tuples, lx.input_tuples
            ));
        }
        let (Ok(rt), Ok(xt)) = (self.db.table(rname), self.db.table(xname)) else {
            return Some("table definition missing".into());
        };
        if rt.stored_count(cluster) != lr.stored_tuples
            || xt.stored_count(cluster) != lx.stored_tuples
        {
            return Some("stored copies differ from the load statistics".into());
        }
        let mut seen = HashSet::new();
        let mut indexed = 0;
        for node in 0..NODES {
            let frag = match rt.fragment_tuples(cluster, node) {
                Ok(f) => f,
                Err(e) => return Some(e.to_string()),
            };
            for t in &frag {
                if let Ok(v) = t.get(LINE_ID).and_then(Value::as_str) {
                    seen.insert(v.to_string());
                }
            }
            match rt.rtree_index(cluster, node, LINE_SHAPE) {
                Ok(tree) if tree.len() == frag.len() => indexed += tree.len() as u64,
                Ok(tree) => {
                    return Some(format!(
                        "node {node}: R*-tree holds {} of {} rows",
                        tree.len(),
                        frag.len()
                    ))
                }
                Err(e) => return Some(e.to_string()),
            }
        }
        if &seen != ids {
            return Some(format!("{} distinct ids stored, {} loaded", seen.len(), ids.len()));
        }
        (indexed != lr.stored_tuples).then(|| "index size differs from the stored rows".into())
    }

    /// Runs one operation of the workload.
    fn one_op(&mut self, pass_idx: &mut usize) -> OpRec {
        match self.opts.workload {
            Workload::Ingest => self.ingest(),
            Workload::Browse => {
                let stmt = self.browse.as_mut().expect("browse stream").next_stmt();
                self.statement(&stmt, None, None)
            }
            Workload::Sequoia | Workload::SequoiaTcp => {
                let pass = std::mem::take(&mut self.pass);
                let (stmt, expected, digest) = &pass[*pass_idx];
                let rec = self.statement(stmt, Some(expected), *digest);
                *pass_idx = (*pass_idx + 1) % pass.len();
                self.pass = pass;
                rec
            }
        }
    }

    /// A closed loop for `seconds`; Sequoia runs end on a pass boundary.
    fn measure(&mut self, seconds: f64, phase: &mut Phase) {
        let t0 = Instant::now();
        let mut pass_idx = 0;
        while t0.elapsed().as_secs_f64() < seconds || pass_idx != 0 {
            let calib = self.calib.tick();
            let mut rec = self.one_op(&mut pass_idx);
            rec.calib = calib;
            phase.ops.push(rec);
            if self.space_bytes.is_none() && phase.attempted() >= SPACE_OPS {
                self.space_bytes = Some(dir_bytes(&self.dir));
            }
            if !self.wrong.is_empty() {
                return;
            }
        }
    }
}

/// Runs the benchmark once.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let work = PathBuf::from(WORK_DIR);
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let _cleanup = Cleanup(run_dir.clone());
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let db_dir = run_dir.join("db");
    let events = opts.trace.then(|| run_dir.join("events.jsonl"));
    let transport = opts.workload.transport();

    // Set up several times; keep the last instance.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (world, db, report, t) =
            workload::setup(opts.seed, &db_dir, transport, events.as_deref())
                .map_err(|e| format!("setup: {e}"))?;
        setup_times.push(t.as_secs_f64());
        kept = Some((world, db, report));
    }
    let (world, db, report) = kept.expect("at least one set-up");
    let stored_per_raw = stored_per_raw_byte(&db, &world).map_err(|e| format!("tile scan: {e}"))?;
    let live_bytes = live_input_bytes(&world);
    let pool_size = db.cluster().workers().workers();

    let oracle = Oracle::new(&world);
    let mut pass = Vec::new();
    if opts.workload.cold() {
        let stmts = sequoia_pass();
        // Under Tcp every statement must return the Local transport's rows.
        let digests: Vec<Option<u64>> = if transport == TransportKind::Tcp {
            let ref_dir = run_dir.join("local-reference");
            let (local, _) = workload::load_instance(&ref_dir, &world, TransportKind::Local, None)
                .map_err(|e| format!("reference set-up: {e}"))?;
            let d = stmts
                .iter()
                .map(|s| {
                    local.flush_caches().ok()?;
                    local.sql(&s.sql).ok().map(|r| row_digest(&r.rows))
                })
                .collect();
            drop(local);
            let _ = std::fs::remove_dir_all(&ref_dir);
            d
        } else {
            vec![None; stmts.len()]
        };
        for (s, d) in stmts.into_iter().zip(digests) {
            let a = oracle.expect(&s.check);
            pass.push((s, a, d));
        }
    }
    let browse = (opts.workload == Workload::Browse).then(|| BrowseStream::new(opts.seed, &world));

    let mut r = Runner {
        opts: opts.clone(),
        db,
        world: &world,
        oracle,
        dir: db_dir.clone(),
        tracer: Tracer::new(false),
        next_op: 0,
        pass,
        browse,
        errors: BTreeMap::new(),
        wrong: Vec::new(),
        duplicate_rows: 0,
        space_bytes: None,
        replay_visits: Counter::new(),
        events,
        stored_per_raw,
        calib: Calibrator::new(opts.workload.kernel_threads()),
    };

    if opts.workload == Workload::Browse {
        // Warm the pool with statements from a stream of their own.
        let mut warm = BrowseStream::new(opts.seed ^ 0x5741_524D, &world);
        for _ in 0..WARMUP_OPS {
            let stmt = warm.next_stmt();
            let _ = r.statement(&stmt, None, None);
        }
        r.errors.clear();
        r.next_op = 0;
    }

    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut counters = Sample::default();
    if opts.trace {
        r.measure(opts.seconds / 2.0, &mut untraced);
        if r.wrong.is_empty() {
            // Two back-to-back samples measure what taking one costs (under
            // Tcp it pulls the node registries over the wire); that cost is
            // taken off the traced phase's counter deltas.
            let s0 = Sample::take(&r.db);
            let s1 = Sample::take(&r.db);
            r.tracer = Tracer::new(true);
            r.measure(opts.seconds / 2.0, &mut traced);
            let s2 = Sample::take(&r.db);
            counters = s0.until(&s1).until(&s1.until(&s2));
        }
    } else {
        r.measure(opts.seconds, &mut untraced);
    }

    let correct = r.wrong.is_empty();
    for w in r.wrong.iter().take(10) {
        eprintln!("WRONG: {w}");
    }
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed() + traced.failed();
    let space_bytes = r.space_bytes.unwrap_or_else(|| dir_bytes(&db_dir));

    let mut detail: Vec<(String, String)> = Vec::new();
    let q = |s: &str| format!("\"{}\"", crate::json::escape(s));
    detail.push(("loop".into(), q("closed, 1 client")));
    detail.push((
        "transport".into(),
        q(match transport {
            TransportKind::Tcp => "tcp",
            TransportKind::Local => "local",
        }),
    ));
    detail.push((
        "cache".into(),
        q(if opts.workload.cold() {
            "cold: flush_caches before every statement"
        } else if opts.workload == Workload::Browse {
            "warm"
        } else {
            "as left by the previous operation"
        }),
    ));
    let spec = workload::world_spec(opts.seed);
    detail.push(("world".into(), q(&format!("paper_ratio(seed {}, scale {}, shrink {}): {} rasters, {} places, {} roads, {} drainage, {} landCover", spec.seed, spec.scale, workload::SHRINK, world.rasters.len(), world.populated_places.len(), world.roads.len(), world.drainage.len(), world.land_cover.len()))));
    detail.push(("nodes".into(), NODES.to_string()));
    detail.push(("worker_pool".into(), pool_size.to_string()));
    detail.push((
        "nproc".into(),
        std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
    ));
    detail.push(("git_revision".into(), q(&git_revision())));
    detail.push((
        "build_profile".into(),
        q(if cfg!(debug_assertions) { "debug" } else { "release" }),
    ));
    detail.push((
        "setup_runs_s".into(),
        format!(
            "[{}]",
            setup_times.iter().map(|t| format!("{t:.4}")).collect::<Vec<_>>().join(",")
        ),
    ));
    detail.push((
        "load".into(),
        format!(
            "{{{}}}",
            report
                .iter()
                .map(|(n, s)| format!(
                    "\"{n}\":{{\"input\":{},\"stored\":{},\"bytes\":{}}}",
                    s.input_tuples, s.stored_tuples, s.bytes
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    let errors =
        r.errors.iter().map(|(m, c)| format!("{}:{c}", q(m))).collect::<Vec<_>>().join(",");
    detail.push(("errors".into(), format!("{{{errors}}}")));
    detail.push(("error_rate".into(), format!("{:.6}", failed as f64 / attempted.max(1) as f64)));
    detail.push(("wrong_answers".into(), r.wrong.len().to_string()));
    detail.push(("duplicate_rows".into(), r.duplicate_rows.to_string()));
    detail.push(("not_covered".into(), q("only the paper's query shapes run, so statements outside them (e.g. a predicate the plan matcher ignores) are not checked")));

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit })
    };
    if !opts.trace {
        // Timings are scaled to the reference host's speed (see `calib`);
        // the raw figures are printed with the kernel times.
        let scales = r.calib.scales();
        let (per_op, w) = (opts.workload.statements_per_op(), opts.workload.rate_window());
        let raw = untraced.latencies_ms(per_op, None);
        let lat = untraced.latencies_ms(per_op, Some(&scales));
        let tail_of = |v: &[f64]| {
            stats::windowed_tail(v, opts.workload.tail_window())
                .unwrap_or_else(|| (v.iter().copied().fold(0.0, f64::max), 100.0, v.len(), 1))
        };
        let (tail, pct, window, windows) = tail_of(&lat);
        let op = match per_op {
            1 => "one statement".to_string(),
            n => format!("one Q2-Q14 pass of {n} statements"),
        };
        detail.push(("timed_operation".into(), q(&op)));
        detail.push(("latency_samples".into(), lat.len().to_string()));
        detail.push(("latency_tail".into(), q(&format!("median over {windows} window(s) of {window} samples of the largest latency with ten samples above it (p{pct:.2})"))));
        let mut by_template: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for o in untraced.ok() {
            by_template.entry(o.template).or_default().push(o.ns as f64 / 1e6);
        }
        let p50s = by_template
            .iter()
            .map(|(t, v)| format!("\"{t}\":{:.4}", stats::median(v).unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(",");
        detail.push(("raw_template_p50_ms".into(), format!("{{{p50s}}}")));
        detail.push((
            "host_speed".into(),
            format!(
                "{{\"kernel_threads\":{},\"kernel_runs\":{},\"kernel_median_ms\":{:.4},\"reference_ms\":{:.4}}}",
                opts.workload.kernel_threads(),
                r.calib.samples(),
                r.calib.median_ns() / 1e6,
                r.calib.reference_ns() / 1e6
            ),
        ));
        detail.push((
            "raw".into(),
            format!(
                "{{\"latency_p50_ms\":{:.6},\"latency_tail_ms\":{:.6},\"ops_per_s\":{:.4}}}",
                stats::median(&raw).unwrap_or(0.0),
                tail_of(&raw).0,
                untraced.ops_per_s(per_op, w, None)
            ),
        ));
        put("setup_s", stats::median(&setup_times).unwrap_or(0.0), "s");
        put("latency_p50_ms", stats::median(&lat).unwrap_or(0.0), "ms");
        put("latency_tail_ms", tail, "ms");
        put("ops_per_s", untraced.ops_per_s(per_op, w, Some(&scales)), "1/s");
        put("success_rate", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio");
        put("peak_rss_mb", peak_rss_mb(), "MB");
        put("space_amp", space_bytes as f64 / live_bytes.max(1) as f64, "ratio");
    } else {
        r.per_layer(&untraced, &traced, &counters, space_bytes, &mut put);
        let trace_path = work.join(format!("trace-{}-s{}.jsonl", opts.workload.name(), opts.seed));
        let file = std::fs::File::create(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        r.tracer.write_jsonl(std::io::BufWriter::new(file)).map_err(|e| format!("trace: {e}"))?;
        detail.push(("trace_file".into(), q(&trace_path.display().to_string())));
        let by_name = r.tracer.self_time_by_name();
        let self_ms = by_name
            .iter()
            .map(|(n, (ns, c))| {
                format!("\"{n}\":{{\"self_ms\":{:.3},\"spans\":{c}}}", *ns as f64 / 1e6)
            })
            .collect::<Vec<_>>()
            .join(",");
        detail.push(("span_self_time".into(), format!("{{{self_ms}}}")));
    }
    drop(r);
    Ok(Outcome { correct, attempted, failed, metrics, detail })
}

impl Runner<'_> {
    /// The per-layer metrics of a traced run; `counters` are the registry
    /// deltas over the traced phase.
    fn per_layer(
        &self,
        untraced: &Phase,
        traced: &Phase,
        counters: &Sample,
        space_bytes: u64,
        put: &mut impl FnMut(&str, f64, &'static str),
    ) {
        let tr = &self.tracer;
        let med_us = |name: &str| {
            let v: Vec<f64> = tr.durations_ns(name).iter().map(|&n| n as f64 / 1e3).collect();
            stats::median(&v).unwrap_or(0.0)
        };
        let ops = traced.attempted().max(1) as f64;
        let node = |name: &str| counters.node(name);
        let qc = |name: &str| counters.qc(name);

        // Front end.
        put("sql.parse_us", med_us("sql.parse"), "us");
        let fe: Vec<f64> =
            traced.ok().filter_map(|o| o.frontend_ns).map(|n| n as f64 / 1e3).collect();
        put("sql.frontend_us", stats::median(&fe).unwrap_or(0.0), "us");

        // Index.
        put("index.open_us", med_us("index.open"), "us");
        put("index.probe_us", med_us("index.probe"), "us");
        put("index.node_visits", qc("rtree.node_visits") / ops, "count/op");
        put("index.rtree_build_ms", med_us("index.build.rtree") / 1e3, "ms");
        put("index.btree_build_ms", med_us("index.build.btree") / 1e3, "ms");

        // Execution driver and operators.
        let wall = traced.qm_mean(|m| ms(m.wall));
        let work = traced.qm_mean(|m| ms(m.phases.iter().map(|p| p.total_work()).sum()));
        let seq = traced.qm_mean(|m| ms(m.sequential));
        put("exec.wall_ms", wall, "ms");
        put("exec.work_ms", work, "ms");
        put(
            "exec.critical_ms",
            traced.qm_mean(|m| ms(m.phases.iter().map(|p| p.critical()).sum())),
            "ms",
        );
        put("exec.sequential_ms", seq, "ms");
        put("exec.between_phases_ms", wall - work - seq, "ms");
        put(
            "exec.worker_busy_ms",
            traced.qm_mean(|m| ms(m.phases.iter().map(|p| p.worker_busy).sum())),
            "ms",
        );
        put(
            "exec.morsels",
            traced.qm_mean(|m| m.phases.iter().map(|p| p.morsels).sum::<u64>() as f64),
            "count/op",
        );
        let templates: Vec<&str> =
            sequoia_pass().iter().map(|s| s.template).chain(BROWSE_TEMPLATES).collect();
        for t in templates {
            let v: Vec<f64> =
                traced.ok().filter(|o| o.template == t).map(|o| o.ns as f64 / 1e6).collect();
            put(&format!("stmt.{t}.p50_ms"), stats::median(&v).unwrap_or(0.0), "ms");
        }
        put("model.simulated_ms", traced.qm_mean(|m| ms(m.simulated_time())), "ms");

        // Buffer and page I/O.
        let (hits, misses) = (node("buffer.hits"), node("buffer.misses"));
        put("storage.buffer_hits", hits / ops, "count/op");
        put("storage.buffer_misses", misses / ops, "count/op");
        put(
            "storage.buffer_hit_ratio",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
            "ratio",
        );
        put("storage.buffer_evictions", node("buffer.evictions") / ops, "count/op");
        put("storage.flush_ms", med_us("storage.flush") / 1e3, "ms");

        // Raster.
        put("raster.pulls", traced.qm_mean(|m| m.pulls as f64), "count/op");
        put("raster.pull_bytes", traced.qm_mean(|m| m.pull_bytes as f64), "B/op");
        put("array.stored_per_raw_byte", self.stored_per_raw, "ratio");

        // Transport.
        put("net.bytes", traced.qm_mean(|m| m.net_bytes as f64), "B/op");
        put("net.tuples", traced.qm_mean(|m| m.net_tuples as f64), "count/op");
        let (wire_bytes, wire_frames) = (qc("net.wire.bytes_sent"), qc("net.wire.frames_sent"));
        put("net.wire_bytes", wire_bytes / ops, "B/op");
        put("net.wire_frames", wire_frames / ops, "count/op");
        put(
            "net.bytes_per_frame",
            if wire_frames > 0.0 { wire_bytes / wire_frames } else { 0.0 },
            "B",
        );
        put("net.streams_opened", qc("exec.streams_opened") / ops, "count/op");
        let events =
            self.events.as_ref().and_then(|p| std::fs::read_to_string(p).ok()).unwrap_or_default();
        let count = |kind: &str| {
            events.lines().filter(|l| l.contains(&format!("\"event\":\"{kind}\""))).count() as f64
        };
        put("net.retries", count("net.retry"), "count");
        put("net.flow_stalls", count("flow.stall"), "count");

        // Write path.
        let load_ms: Vec<f64> =
            tr.durations_ns("load.table").iter().map(|&n| n as f64 / 1e6).collect();
        put("load.ms", stats::median(&load_ms).unwrap_or(0.0), "ms");
        let rows: u64 = traced.ok().filter_map(|o| o.loaded).map(|l| l.0).sum();
        let stored: u64 = traced.ok().filter_map(|o| o.loaded).map(|l| l.1).sum();
        put("load.rows_per_s", rows as f64 / (load_ms.iter().sum::<f64>() / 1e3).max(1e-9), "1/s");
        put(
            "decluster.replication",
            if rows > 0 { stored as f64 / rows as f64 } else { 0.0 },
            "ratio",
        );
        put("storage.commit_ms", med_us("storage.commit") / 1e3, "ms");
        put("storage.wal_bytes", node("wal.bytes") / ops, "B/op");
        put("storage.wal_commits", node("wal.commits") / ops, "count/op");
        put("storage.drop_ms", med_us("storage.drop") / 1e3, "ms");
        put("storage.volume_bytes", space_bytes as f64, "B");

        // What tracing costs: the same loop with and without spans.
        let (per_op, w) =
            (self.opts.workload.statements_per_op(), self.opts.workload.rate_window());
        let (u, t) = (untraced.ops_per_s(per_op, w, None), traced.ops_per_s(per_op, w, None));
        put("trace.ops_per_s_untraced", u, "1/s");
        put("trace.ops_per_s_traced", t, "1/s");
        put("trace.overhead_pct", if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 }, "%");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ok: bool, ns: u64, calib: usize) -> OpRec {
        OpRec { template: "q", ok, ns, calib, frontend_ns: None, metrics: None, loaded: None }
    }

    #[test]
    fn passes_group_statements_and_scale_each_one() {
        // Two passes of three statements; the second has a failed statement.
        let phase = Phase {
            ops: vec![
                rec(true, 100, 0),
                rec(true, 200, 1),
                rec(true, 300, 1),
                rec(true, 100, 0),
                rec(false, 200, 0),
                rec(true, 300, 1),
            ],
        };
        let scales = [1.0, 0.5];
        assert_eq!(phase.op_ns(3, None), vec![(true, 600.0), (false, 600.0)]);
        assert_eq!(phase.op_ns(3, Some(&scales)), vec![(true, 350.0), (false, 450.0)]);
        assert_eq!(phase.latencies_ms(3, Some(&scales)), vec![350.0 / 1e6]);
        assert_eq!(phase.op_ns(1, None).len(), 6);
        // One completed pass per 800 ns of scaled busy time, the failed
        // pass included.
        let rate = phase.ops_per_s(3, 5, Some(&scales));
        assert!((rate - 1.0 / 800e-9).abs() < 1e-3, "{rate}");
    }
}
