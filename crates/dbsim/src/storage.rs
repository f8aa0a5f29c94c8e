//! Heap tables and ordered secondary indexes.

use std::collections::BTreeMap;

use crate::catalog::{TableSchema, Value};
use crate::exec::ExecError;

/// Row identifier: position in the heap. Deleted rows become tombstones so
/// RowIds stay stable (indexes reference them).
pub type RowId = usize;

/// An ordered secondary index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    /// Column positions (in schema order of the key, not the table).
    pub columns: Vec<usize>,
    /// Human-readable column list, for advisor output.
    pub column_names: Vec<String>,
    /// Sorted key → row ids.
    map: BTreeMap<IndexKey, Vec<RowId>>,
}

/// A comparable index key (wraps values with the total order).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Vec<Value>);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = a.index_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl Index {
    fn key_of(&self, row: &[Value]) -> IndexKey {
        IndexKey(self.columns.iter().map(|&c| row[c].clone()).collect())
    }

    /// Row ids whose first key column equals `v` (for multi-column indexes,
    /// a prefix lookup).
    pub fn lookup_eq_prefix(&self, v: &Value) -> Vec<RowId> {
        // Range over keys whose first component equals v.
        let lo = IndexKey(vec![v.clone()]);
        self.map
            .range(lo..)
            .take_while(|(k, _)| k.0[0].index_cmp(v) == std::cmp::Ordering::Equal)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Row ids whose first key column lies in `[lo, hi]` (either bound
    /// optional).
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<RowId> {
        // Seek to the lower bound instead of scanning the whole map (a
        // single-element key is ordered before any multi-column key with
        // the same first component, so it is a valid range start).
        let iter: Box<dyn Iterator<Item = (&IndexKey, &Vec<RowId>)>> = match lo {
            Some(l) => Box::new(self.map.range(IndexKey(vec![l.clone()])..)),
            None => Box::new(self.map.iter()),
        };
        let mut out = Vec::new();
        for (k, ids) in iter {
            let v = &k.0[0];
            if let Some(h) = hi {
                if v.index_cmp(h) == std::cmp::Ordering::Greater {
                    break;
                }
            }
            if v.is_null() {
                continue;
            }
            out.extend(ids.iter().copied());
        }
        out
    }
}

/// A heap table plus its secondary indexes.
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Vec<Value>>>,
    live_rows: usize,
    indexes: Vec<Index>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Self { schema, rows: Vec::new(), live_rows: 0, indexes: Vec::new() }
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Heap pages occupied (cost-model input): rows × row_bytes / 8 KiB.
    pub fn pages(&self) -> usize {
        (self.live_rows * self.schema.row_bytes).div_ceil(8192).max(1)
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// The index whose first column is `col`, if any.
    pub fn index_on(&self, col: usize) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.columns.first() == Some(&col))
    }

    /// Inserts a full-width row, updating indexes. Returns its RowId.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> RowId {
        assert_eq!(row.len(), self.schema.columns.len(), "row arity mismatch");
        let id = self.rows.len();
        for ix in &mut self.indexes {
            let key = ix.key_of(&row);
            ix.map.entry(key).or_default().push(id);
        }
        self.rows.push(Some(row));
        self.live_rows += 1;
        id
    }

    /// Visible row access.
    pub fn row(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id).and_then(|r| r.as_deref())
    }

    /// Iterates live `(RowId, row)` pairs (a full scan).
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|row| (i, row)))
    }

    /// Deletes a row by id (tombstone + index maintenance).
    pub fn delete(&mut self, id: RowId) -> bool {
        let Some(slot) = self.rows.get_mut(id) else { return false };
        let Some(row) = slot.take() else { return false };
        self.live_rows -= 1;
        for ix in &mut self.indexes {
            let key = ix.key_of(&row);
            if let Some(ids) = ix.map.get_mut(&key) {
                ids.retain(|&r| r != id);
                if ids.is_empty() {
                    ix.map.remove(&key);
                }
            }
        }
        true
    }

    /// Replaces column values of a row, maintaining indexes.
    pub fn update(&mut self, id: RowId, changes: &[(usize, Value)]) -> bool {
        let Some(Some(row)) = self.rows.get(id).map(|r| r.as_ref()) else { return false };
        let old = row.clone();
        let mut new = old.clone();
        for (c, v) in changes {
            new[*c] = v.clone();
        }
        for ix in &mut self.indexes {
            let old_key = ix.key_of(&old);
            let new_key = ix.key_of(&new);
            if old_key != new_key {
                if let Some(ids) = ix.map.get_mut(&old_key) {
                    ids.retain(|&r| r != id);
                    if ids.is_empty() {
                        ix.map.remove(&old_key);
                    }
                }
                ix.map.entry(new_key).or_default().push(id);
            }
        }
        self.rows[id] = Some(new);
        true
    }

    /// Builds a secondary index over the named columns. Returns `Ok(false)`
    /// if an identical index already exists.
    pub fn create_index(&mut self, columns: &[&str]) -> Result<bool, ExecError> {
        let mut positions = Vec::with_capacity(columns.len());
        for c in columns {
            let c = c.to_ascii_lowercase();
            let pos = self
                .schema
                .column_index(&c)
                .ok_or_else(|| ExecError::UnknownColumn(self.schema.name.clone(), c.clone()))?;
            positions.push(pos);
        }
        if self.indexes.iter().any(|ix| ix.columns == positions) {
            return Ok(false);
        }
        let mut ix = Index {
            columns: positions,
            column_names: columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            map: BTreeMap::new(),
        };
        for (id, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                let key = ix.key_of(row);
                ix.map.entry(key).or_default().push(id);
            }
        }
        self.indexes.push(ix);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, ColumnType};

    fn table() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Integer),
                ColumnDef::new("grp", ColumnType::Integer),
            ],
        ))
    }

    #[test]
    fn insert_scan_delete() {
        let mut t = table();
        let a = t.insert(vec![Value::Integer(1), Value::Integer(10)]);
        let _b = t.insert(vec![Value::Integer(2), Value::Integer(10)]);
        assert_eq!(t.len(), 2);
        assert!(t.delete(a));
        assert!(!t.delete(a), "double delete is a no-op");
        assert_eq!(t.len(), 1);
        let ids: Vec<RowId> = t.scan().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn index_lookup_eq() {
        let mut t = table();
        for i in 0..100 {
            t.insert(vec![Value::Integer(i), Value::Integer(i % 7)]);
        }
        t.create_index(&["grp"]).unwrap();
        let hits = t.indexes()[0].lookup_eq_prefix(&Value::Integer(3));
        assert_eq!(hits.len(), 14); // 3, 10, ..., 94
        for id in hits {
            assert_eq!(t.row(id).unwrap()[1], Value::Integer(3));
        }
    }

    #[test]
    fn index_lookup_range() {
        let mut t = table();
        for i in 0..50 {
            t.insert(vec![Value::Integer(i), Value::Integer(0)]);
        }
        t.create_index(&["id"]).unwrap();
        let hits =
            t.indexes()[0].lookup_range(Some(&Value::Integer(10)), Some(&Value::Integer(14)));
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn index_maintained_on_update_delete() {
        let mut t = table();
        let id = t.insert(vec![Value::Integer(1), Value::Integer(5)]);
        t.create_index(&["grp"]).unwrap();
        t.update(id, &[(1, Value::Integer(9))]);
        assert!(t.indexes()[0].lookup_eq_prefix(&Value::Integer(5)).is_empty());
        assert_eq!(t.indexes()[0].lookup_eq_prefix(&Value::Integer(9)), vec![id]);
        t.delete(id);
        assert!(t.indexes()[0].lookup_eq_prefix(&Value::Integer(9)).is_empty());
    }

    #[test]
    fn multi_column_index_prefix_lookup() {
        let mut t = table();
        t.insert(vec![Value::Integer(1), Value::Integer(5)]);
        t.insert(vec![Value::Integer(1), Value::Integer(6)]);
        t.insert(vec![Value::Integer(2), Value::Integer(5)]);
        t.create_index(&["id", "grp"]).unwrap();
        let hits = t.indexes()[0].lookup_eq_prefix(&Value::Integer(1));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn pages_grow_with_rows() {
        let mut t = table();
        assert_eq!(t.pages(), 1);
        for i in 0..10_000 {
            t.insert(vec![Value::Integer(i), Value::Integer(0)]);
        }
        assert!(t.pages() > 10);
    }

    #[test]
    fn create_index_unknown_column_errors() {
        let mut t = table();
        assert!(matches!(t.create_index(&["nope"]), Err(ExecError::UnknownColumn(_, _))));
    }
}
