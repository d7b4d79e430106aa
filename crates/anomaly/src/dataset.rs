//! Datasets of the detection service: dense rows of numeric features.

/// A dense numeric dataset: rows of feature vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// Rows; every row has `dims()` features.
    pub rows: Vec<Vec<f64>>,
}

impl Dataset {
    /// Creates a dataset from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Dataset {
        if let Some(first) = rows.first() {
            let d = first.len();
            assert!(
                rows.iter().all(|r| r.len() == d),
                "all rows must have {d} features"
            );
        }
        Dataset { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality (0 for empty datasets).
    pub fn dims(&self) -> usize {
        self.rows.first().map(Vec::len).unwrap_or(0)
    }

    /// Column view.
    pub fn column(&self, j: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "all rows must have")]
    fn inconsistent_rows_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
