//! Relational join algorithms (paper §2.4): nested loops and
//! dynamic-memory Grace hash join.

use crate::decluster::hash_value;
use crate::ops::basic::concat;
use crate::table::index_key;
use crate::tuple::Tuple;
use crate::workers::WorkerPool;
use crate::{ExecError, Result};
use std::collections::HashMap;

/// Fixed morsel size (hash buckets) for the parallel build/probe phase of
/// the Grace hash join: one morsel is a run of adjacent buckets. Fixed —
/// never derived from the worker count — so outputs merge identically for
/// every pool size.
const BUCKET_MORSEL: usize = 4;

/// Nested-loops join with an arbitrary predicate.
pub fn nested_loops_join(
    left: &[Tuple],
    right: &[Tuple],
    mut pred: impl FnMut(&Tuple, &Tuple) -> Result<bool>,
) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if pred(l, r)? {
                out.push(concat(l, r));
            }
        }
    }
    Ok(out)
}

/// Grace hash join on equality of `left[lcol] == right[rcol]`.
///
/// Phase 1 partitions both inputs by a hash of the join key into enough
/// buckets that each build side fits in `mem_budget` bytes (the
/// dynamic-memory behaviour of \[Kits89\]); phase 2 builds an in-memory
/// hash table per bucket from the smaller side and probes with the other.
pub fn hash_join(
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
    mem_budget: usize,
) -> Result<Vec<Tuple>> {
    hash_join_with(&WorkerPool::serial(), left, lcol, right, rcol, mem_budget)
}

/// [`hash_join`] with the build/probe phase running as bucket morsels on a
/// worker pool. Partitioning stays serial (it is a single cheap pass whose
/// first error must be deterministic); each morsel then builds and probes
/// a run of `BUCKET_MORSEL` (4) adjacent buckets, and the per-morsel outputs
/// are concatenated in bucket order — byte-identical to the serial join
/// for every worker count.
pub fn hash_join_with(
    pool: &WorkerPool,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
    mem_budget: usize,
) -> Result<Vec<Tuple>> {
    // Choose the bucket count from the estimated build size.
    let build_bytes: usize = left.iter().map(|t| t.wire_size()).sum();
    let buckets = (build_bytes / mem_budget.max(1) + 1).next_power_of_two();

    let mut lparts: Vec<Vec<&Tuple>> = vec![Vec::new(); buckets];
    for t in left {
        let h = hash_value(t.get(lcol)?) as usize;
        lparts[h & (buckets - 1)].push(t);
    }
    let mut rparts: Vec<Vec<&Tuple>> = vec![Vec::new(); buckets];
    for t in right {
        let h = hash_value(t.get(rcol)?) as usize;
        rparts[h & (buckets - 1)].push(t);
    }

    let per_morsel = pool.run(buckets, BUCKET_MORSEL, |range| {
        let mut out = Vec::new();
        for (lp, rp) in lparts[range.clone()].iter().zip(&rparts[range]) {
            if lp.is_empty() || rp.is_empty() {
                continue;
            }
            // Build on the left partition, keyed by the order-preserving
            // encoding (hash collisions re-checked by key equality).
            let mut table: HashMap<Vec<u8>, Vec<&Tuple>> = HashMap::with_capacity(lp.len());
            for l in lp {
                table.entry(index_key(l.get(lcol)?)).or_default().push(l);
            }
            for r in rp {
                if let Some(matches) = table.get(&index_key(r.get(rcol)?)) {
                    for l in matches {
                        out.push(concat(l, r));
                    }
                }
            }
        }
        Ok::<_, ExecError>(out)
    })?;
    Ok(per_morsel.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn kv(k: i64, v: &str) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Str(v.into())])
    }

    #[test]
    fn nested_loops_cross_predicate() {
        let left = vec![kv(1, "a"), kv(2, "b")];
        let right = vec![kv(2, "x"), kv(3, "y")];
        let out =
            nested_loops_join(&left, &right, |l, r| Ok(l.get(0)?.as_int()? == r.get(0)?.as_int()?))
                .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1).unwrap(), &Value::Str("b".into()));
        assert_eq!(out[0].get(3).unwrap(), &Value::Str("x".into()));
    }

    #[test]
    fn hash_join_matches_nested_loops() {
        let left: Vec<Tuple> = (0..200).map(|i| kv(i % 37, "l")).collect();
        let right: Vec<Tuple> = (0..150).map(|i| kv(i % 41, "r")).collect();
        let hj = hash_join(&left, 0, &right, 0, 1 << 20).unwrap();
        let nl =
            nested_loops_join(&left, &right, |l, r| Ok(l.get(0)?.as_int()? == r.get(0)?.as_int()?))
                .unwrap();
        assert_eq!(hj.len(), nl.len());
    }

    #[test]
    fn hash_join_tiny_budget_forces_many_buckets() {
        // A 100-byte budget forces heavy partitioning; result unchanged.
        let left: Vec<Tuple> = (0..100).map(|i| kv(i % 10, "l")).collect();
        let right: Vec<Tuple> = (0..100).map(|i| kv(i % 10, "r")).collect();
        let small = hash_join(&left, 0, &right, 0, 100).unwrap();
        let big = hash_join(&left, 0, &right, 0, 1 << 30).unwrap();
        assert_eq!(small.len(), big.len());
        assert_eq!(small.len(), 10 * 10 * 10); // 10 keys × 10 × 10
    }

    #[test]
    fn hash_join_duplicates_and_empties() {
        let left = vec![kv(7, "a"), kv(7, "b")];
        let right = vec![kv(7, "x"), kv(7, "y"), kv(8, "z")];
        let out = hash_join(&left, 0, &right, 0, 1024).unwrap();
        assert_eq!(out.len(), 4);
        assert!(hash_join(&[], 0, &right, 0, 1024).unwrap().is_empty());
        assert!(hash_join(&left, 0, &[], 0, 1024).unwrap().is_empty());
    }
}
