//! Tuples: ordered lists of values with a self-describing byte encoding.

use crate::value::{skip_value, tag_kind, Date, ShapeRef, Value};
use crate::{ExecError, Result};
use std::cell::Cell;

/// A tuple of attribute values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    /// The values, positionally matching the table schema.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Value at column `i`.
    pub fn get(&self, i: usize) -> Result<&Value> {
        self.values.get(i).ok_or_else(|| ExecError::NotFound(format!("column index {i}")))
    }

    /// Serializes the tuple (column count + tagged values).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.values.len() * 12);
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            v.encode(&mut out);
        }
        out
    }

    /// Deserializes a tuple encoded by [`Tuple::encode`].
    pub fn decode(buf: &[u8]) -> Result<Tuple> {
        if buf.len() < 2 {
            return Err(ExecError::Codec("truncated tuple"));
        }
        let n = u16::from_le_bytes(buf[0..2].try_into().unwrap()) as usize;
        let mut pos = 2;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(buf, &mut pos)?);
        }
        Ok(Tuple { values })
    }

    /// Network cost of shipping the tuple (large attributes count as
    /// references, §2.5.2).
    pub fn wire_size(&self) -> usize {
        2 + self.values.iter().map(|v| v.wire_size()).sum::<usize>()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

/// A borrowed view of one tuple encoded by [`Tuple::encode`], as a scan
/// lends it: columns are decoded one at a time, on request, so a scan can
/// test its predicate columns and build the full [`Tuple`] only for the rows
/// that pass.
///
/// [`Row::new`] checks the structure up front (column count, value and
/// shape tags, bit depths, lengths within the buffer, UTF-8 of strings), so
/// a truncated or garbage record fails the scan even when no column of it
/// is read. Whatever it rejects, [`Tuple::decode`] rejects too; `Row::new`
/// followed by [`Row::to_tuple`] accepts exactly what `Tuple::decode` does.
#[derive(Debug)]
pub struct Row<'a> {
    buf: &'a [u8],
    len: usize,
    /// Offsets of the first [`ROW_OFFSETS`] columns' value tags.
    starts: [usize; ROW_OFFSETS],
    materialised: Cell<bool>,
}

/// Columns whose offsets a [`Row`] records up front; later columns are
/// found by stepping over the values before them.
const ROW_OFFSETS: usize = 8;

impl<'a> Row<'a> {
    /// Checks the encoding's structure and wraps it.
    pub fn new(buf: &'a [u8]) -> Result<Row<'a>> {
        if buf.len() < 2 {
            return Err(ExecError::Codec("truncated tuple"));
        }
        let len = u16::from_le_bytes(buf[0..2].try_into().unwrap()) as usize;
        let mut starts = [0; ROW_OFFSETS];
        let mut pos = 2;
        for col in 0..len {
            let start = pos;
            if let Some(s) = starts.get_mut(col) {
                *s = start;
            }
            skip_value(buf, &mut pos)?;
            if buf[start] == 3 {
                std::str::from_utf8(&buf[start + 5..pos])
                    .map_err(|_| ExecError::Codec("bad utf8"))?;
            }
        }
        Ok(Row { buf, len, starts, materialised: Cell::new(false) })
    }

    /// The encoded tuple.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Offset of column `col`'s value tag.
    fn start(&self, col: usize) -> Result<usize> {
        if col >= self.len {
            return Err(ExecError::NotFound(format!("column index {col}")));
        }
        if col < ROW_OFFSETS {
            return Ok(self.starts[col]);
        }
        let mut pos = self.starts[ROW_OFFSETS - 1];
        for _ in ROW_OFFSETS - 1..col {
            skip_value(self.buf, &mut pos)?;
        }
        Ok(pos)
    }

    /// Offset of column `col`'s payload, checking its value tag.
    fn payload(&self, col: usize, tag: u8, expected: &'static str) -> Result<usize> {
        let pos = self.start(col)?;
        match self.buf[pos] {
            t if t == tag => Ok(pos + 1),
            t => Err(ExecError::Type { expected, got: tag_kind(t).to_string() }),
        }
    }

    fn i64_at(&self, pos: usize) -> i64 {
        i64::from_le_bytes(self.buf[pos..pos + 8].try_into().unwrap())
    }

    /// Column `col`, decoded into an owned value.
    pub fn get(&self, col: usize) -> Result<Value> {
        Value::decode(self.buf, &mut self.start(col)?)
    }

    /// Integer column (the [`Value::as_int`] of [`Row::get`]).
    pub fn int(&self, col: usize) -> Result<i64> {
        Ok(self.i64_at(self.payload(col, 1, "int")?))
    }

    /// Date column (the [`Value::as_date`] of [`Row::get`]).
    pub fn date(&self, col: usize) -> Result<Date> {
        Ok(Date(self.i64_at(self.payload(col, 4, "date")?)))
    }

    /// String column, borrowed from the record.
    pub fn str(&self, col: usize) -> Result<&'a str> {
        let pos = self.payload(col, 3, "string")?;
        let n = u32::from_le_bytes(self.buf[pos..pos + 4].try_into().unwrap()) as usize;
        std::str::from_utf8(&self.buf[pos + 4..pos + 4 + n])
            .map_err(|_| ExecError::Codec("bad utf8"))
    }

    /// Shape column, read in place (see [`ShapeRef`]).
    pub fn shape(&self, col: usize) -> Result<ShapeRef<'a>> {
        ShapeRef::decode(self.buf, &mut self.shape_offset(col)?)
    }

    /// Offset in the record of shape column `col`'s payload, where
    /// [`ShapeRef::decode`] reads it.
    pub fn shape_offset(&self, col: usize) -> Result<usize> {
        self.payload(col, 5, "shape")
    }

    /// Decodes every column into an owned tuple.
    pub fn to_tuple(&self) -> Result<Tuple> {
        let mut values = Vec::with_capacity(self.len);
        self.decode_into(&mut values)?;
        Ok(Tuple { values })
    }

    /// Decodes every column, appending the values to `out`.
    pub fn decode_into(&self, out: &mut Vec<Value>) -> Result<()> {
        self.materialised.set(true);
        let mut pos = 2;
        for _ in 0..self.len {
            out.push(Value::decode(self.buf, &mut pos)?);
        }
        Ok(())
    }

    /// Whether [`Row::to_tuple`] was called (scans count these rows as
    /// `scan.decoded`).
    pub fn materialised(&self) -> bool {
        self.materialised.get()
    }
}

/// Encoded records back to back in one buffer, addressed by their index:
/// how an operator keeps a scanned fragment without decoding it.
#[derive(Debug, Clone, Default)]
pub struct Records {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Records {
    /// Room for `records` records of `bytes` bytes in all.
    pub fn with_capacity(records: usize, bytes: usize) -> Records {
        Records { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(records) }
    }

    /// Appends a record; returns the offset of its first byte.
    pub fn push(&mut self, record: &[u8]) -> usize {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len());
        start
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no record.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Record `i`'s bytes.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Record `i`, lent as a [`Row`].
    pub fn row(&self, i: usize) -> Result<Row<'_>> {
        Row::new(self.get(i))
    }

    /// Every record's bytes, back to back: the record [`Records::push`]
    /// placed at `start` begins at `bytes()[start]`.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;
    use paradise_geom::{Point, Shape};

    #[test]
    fn encode_decode_roundtrip() {
        let t = Tuple::new(vec![
            Value::Str("WI-001".into()),
            Value::Int(5),
            Value::from(Shape::Point(Point::new(3.0, 4.0))),
            Value::Date(Date::from_ymd(1988, 4, 1)),
            Value::Null,
        ]);
        let bytes = t.encode();
        assert_eq!(Tuple::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::new(vec![]);
        assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let bytes = t.encode();
        assert!(Tuple::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Tuple::decode(&[]).is_err());
    }

    #[test]
    fn get_out_of_range() {
        let t = Tuple::new(vec![Value::Int(1)]);
        assert!(t.get(0).is_ok());
        assert!(t.get(1).is_err());
    }
}
