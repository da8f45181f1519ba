//! Table schemas.

use crate::{ExecError, Result};

/// Attribute type, mirroring the Paradise data model (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date.
    Date,
    /// Point ADT.
    Point,
    /// Polyline ADT.
    Polyline,
    /// Polygon ADT.
    Polygon,
    /// Swiss-cheese polygon ADT.
    SwissCheese,
    /// Circle ADT.
    Circle,
    /// 16-bit raster image ADT (`Raster16` in the benchmark schema).
    Raster,
}

impl DataType {
    /// Whether the type is a potentially very large attribute.
    pub fn is_large(&self) -> bool {
        matches!(self, DataType::Raster)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: &str, ty: DataType) -> Self {
        Field { name: name.to_string(), ty }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for a zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ExecError::NotFound(format!("column {name}")))
    }

    /// Field of a column by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("shape", DataType::Polygon),
        ]);
        assert_eq!(s.index_of("type").unwrap(), 1);
        assert_eq!(s.field("shape").unwrap().ty, DataType::Polygon);
        assert!(s.index_of("missing").is_err());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn type_categories() {
        assert!(DataType::Raster.is_large());
        assert!(!DataType::Int.is_large());
    }
}
