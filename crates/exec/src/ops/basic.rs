//! Sort and tuple concatenation.

use crate::table::index_key;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Sorts tuples by column `col` using the order-preserving index encoding
/// (query 2's `order by date`).
pub fn sort_by_col(mut input: Vec<Tuple>, col: usize) -> Result<Vec<Tuple>> {
    // Precompute keys to keep the comparator panic-free.
    let mut keyed: Vec<(Vec<u8>, Tuple)> = input
        .drain(..)
        .map(|t| {
            let k = t.get(col).map(index_key)?;
            Ok((k, t))
        })
        .collect::<Result<_>>()?;
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(keyed.into_iter().map(|(_, t)| t).collect())
}

/// The tuple of `a`'s values followed by `b`'s (join output composition).
pub fn concat(a: &[Value], b: &[Value]) -> Tuple {
    let mut values = Vec::with_capacity(a.len() + b.len());
    values.extend(a.iter().cloned());
    values.extend(b.iter().cloned());
    Tuple::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn sort_by_int_col() {
        let out = sort_by_col(vec![t(5), t(-3), t(9), t(0)], 0).unwrap();
        let vals: Vec<i64> = out.iter().map(|t| t.get(0).unwrap().as_int().unwrap()).collect();
        assert_eq!(vals, vec![-3, 0, 5, 9]);
    }

    #[test]
    fn concat_tuples() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::Str("x".into()), Value::Int(2)]);
        let c = concat(&a.values, &b.values);
        assert_eq!(c.values.len(), 3);
        assert_eq!(c.get(2).unwrap(), &Value::Int(2));
    }
}
