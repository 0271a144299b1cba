//! Parameter storage: dense matrices and embedding tables with Adam state.

use miss_tensor::Tensor;
use miss_util::MissError;

/// Identifier of a dense parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DenseId(pub(crate) usize);

/// Identifier of an embedding table inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableId(pub(crate) usize);

pub(crate) struct DenseParam {
    pub name: String,
    pub value: Tensor,
    pub m: Tensor,
    pub v: Tensor,
}

/// Borrowed view of one parameter — its value and Adam moments — as exposed
/// to the checkpoint codec by [`ParamStore::dense_views`] /
/// [`ParamStore::table_views`]. Read-only: mutation goes through the typed
/// `set_*` loaders so shape checks can never be skipped.
pub struct ParamView<'a> {
    /// Registration name.
    pub name: &'a str,
    /// Current weights.
    pub value: &'a Tensor,
    /// Adam first moment.
    pub m: &'a Tensor,
    /// Adam second moment.
    pub v: &'a Tensor,
}

/// An embedding matrix (`rows × dim`) with per-row Adam moments. Rows are
/// only ever touched through sparse lookups, so the moments are updated
/// lazily for touched rows (standard "lazy Adam" semantics).
pub struct EmbeddingTable {
    pub(crate) name: String,
    pub(crate) value: Tensor,
    pub(crate) m: Tensor,
    pub(crate) v: Tensor,
    /// Embedding dimension (columns of `value`, `m` and `v`).
    pub(crate) dim: usize,
}

impl EmbeddingTable {
    /// Number of rows (vocabulary size).
    pub fn rows(&self) -> usize {
        self.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Gather the rows for `indices` into a dense `len×dim` matrix.
    pub fn gather(&self, indices: &[u32]) -> Tensor {
        let idx: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
        self.value.gather_rows(&idx)
    }
}

/// Owns every trainable parameter of a model (or of a model plus its MISS
/// plug-in — they share one store so joint training is trivial).
///
/// Parameters are created-or-fetched by name, so constructing the same model
/// twice over one store reuses weights; experiment code instead creates a
/// fresh store per run.
#[derive(Default)]
pub struct ParamStore {
    pub(crate) dense: Vec<DenseParam>,
    pub(crate) tables: Vec<EmbeddingTable>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a dense parameter, or return the existing one with this name
    /// (shape must then match).
    pub fn dense(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        init: impl FnOnce(usize, usize) -> Tensor,
    ) -> DenseId {
        if let Some(i) = self.dense.iter().position(|p| p.name == name) {
            assert_eq!(
                self.dense[i].value.shape(),
                (rows, cols),
                "dense param {name} re-registered with a different shape"
            );
            return DenseId(i);
        }
        let value = init(rows, cols);
        assert_eq!(value.shape(), (rows, cols), "init returned wrong shape for {name}");
        self.dense.push(DenseParam {
            name: name.to_string(),
            m: Tensor::zeros(rows, cols),
            v: Tensor::zeros(rows, cols),
            value,
        });
        DenseId(self.dense.len() - 1)
    }

    /// Create an embedding table, or return the existing one with this name.
    pub fn table(
        &mut self,
        name: &str,
        rows: usize,
        dim: usize,
        init: impl FnOnce(usize, usize) -> Tensor,
    ) -> TableId {
        if let Some(i) = self.tables.iter().position(|t| t.name == name) {
            assert_eq!(
                self.tables[i].value.shape(),
                (rows, dim),
                "table {name} re-registered with a different shape"
            );
            return TableId(i);
        }
        let value = init(rows, dim);
        assert_eq!(value.shape(), (rows, dim), "init returned wrong shape for {name}");
        self.tables.push(EmbeddingTable {
            name: name.to_string(),
            m: Tensor::zeros(rows, dim),
            v: Tensor::zeros(rows, dim),
            value,
            dim,
        });
        TableId(self.tables.len() - 1)
    }

    /// Current value of a dense parameter.
    pub fn dense_value(&self, id: DenseId) -> &Tensor {
        &self.dense[id.0].value
    }

    /// Mutable value of a dense parameter (tests / manual surgery).
    pub fn dense_value_mut(&mut self, id: DenseId) -> &mut Tensor {
        &mut self.dense[id.0].value
    }

    /// Access an embedding table.
    pub fn table_ref(&self, id: TableId) -> &EmbeddingTable {
        &self.tables[id.0]
    }

    /// Total number of scalar parameters (dense + embeddings).
    pub fn num_params(&self) -> usize {
        self.dense.iter().map(|p| p.value.len()).sum::<usize>()
            + self.tables.iter().map(|t| t.value.len()).sum::<usize>()
    }

    /// Ids of all registered dense parameters, in registration order. The
    /// trainer's micro-batch workers pre-bind every dense param through this
    /// list so all micro-graphs share one binding order (and hence one var
    /// numbering), which is what makes their gradient lists zip-mergeable.
    pub fn dense_ids(&self) -> Vec<DenseId> {
        (0..self.dense.len()).map(DenseId).collect()
    }

    /// Number of registered dense parameters.
    pub fn num_dense(&self) -> usize {
        self.dense.len()
    }

    /// Number of registered embedding tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Borrowed views of every dense parameter (value + Adam moments), in
    /// registration order. This is the traversal the checkpoint codec
    /// serialises.
    pub fn dense_views(&self) -> impl Iterator<Item = ParamView<'_>> {
        self.dense.iter().map(|p| ParamView {
            name: &p.name,
            value: &p.value,
            m: &p.m,
            v: &p.v,
        })
    }

    /// Borrowed views of every embedding table, in registration order.
    pub fn table_views(&self) -> impl Iterator<Item = ParamView<'_>> {
        self.tables.iter().map(|t| ParamView {
            name: &t.name,
            value: &t.value,
            m: &t.m,
            v: &t.v,
        })
    }

    /// Overwrite a dense parameter's value by name. Unlike the `assert!`ing
    /// in-process accessors, this is a *load* entry point fed by untrusted
    /// artifacts, so an unknown name or a wrong shape is a typed error.
    pub fn set_dense_param(&mut self, name: &str, value: Tensor) -> Result<(), MissError> {
        let p = Self::find_mut(&mut self.dense, name, |p| &p.name, "dense param")?;
        Self::check_shape("dense param", name, p.value.shape(), value.shape())?;
        p.value = value;
        Ok(())
    }

    /// Overwrite a dense parameter's Adam moments by name (typed errors, see
    /// [`ParamStore::set_dense_param`]).
    pub fn set_dense_moments(&mut self, name: &str, m: Tensor, v: Tensor) -> Result<(), MissError> {
        let p = Self::find_mut(&mut self.dense, name, |p| &p.name, "dense param")?;
        Self::check_shape("dense param moment m", name, p.m.shape(), m.shape())?;
        Self::check_shape("dense param moment v", name, p.v.shape(), v.shape())?;
        p.m = m;
        p.v = v;
        Ok(())
    }

    /// Overwrite an embedding table's weights by name (typed errors).
    pub fn set_table_param(&mut self, name: &str, value: Tensor) -> Result<(), MissError> {
        let t = Self::find_mut(&mut self.tables, name, |t| &t.name, "embedding table")?;
        Self::check_shape("embedding table", name, t.value.shape(), value.shape())?;
        t.value = value;
        Ok(())
    }

    /// Overwrite an embedding table's Adam moments by name (typed errors).
    pub fn set_table_moments(&mut self, name: &str, m: Tensor, v: Tensor) -> Result<(), MissError> {
        let t = Self::find_mut(&mut self.tables, name, |t| &t.name, "embedding table")?;
        Self::check_shape("embedding table moment m", name, t.m.shape(), m.shape())?;
        Self::check_shape("embedding table moment v", name, t.v.shape(), v.shape())?;
        t.m = m;
        t.v = v;
        Ok(())
    }

    /// A copy of every parameter's value without its Adam moments, in
    /// registration order, so a model built over this store reads the copy
    /// through the same ids: a snapshot to run inference on, not a store to
    /// train.
    pub fn values_only(&self) -> ParamStore {
        let values = |v: ParamView<'_>| (v.name.to_string(), v.value.clone());
        ParamStore::from_values(self.dense_views().map(values), self.table_views().map(values))
    }

    /// A values-only store registering `dense` then `tables` in the order
    /// given; by-name lookups see the first of a repeated name. It takes
    /// iterators so [`ParamStore::values_only`] clones each value straight
    /// into its slot, with no intermediate list.
    pub fn from_values(
        dense: impl IntoIterator<Item = (String, Tensor)>,
        tables: impl IntoIterator<Item = (String, Tensor)>,
    ) -> ParamStore {
        let none = || Tensor::zeros(0, 0);
        let dense = dense.into_iter().map(|(name, value)| DenseParam {
            name,
            value,
            m: none(),
            v: none(),
        });
        let tables = tables.into_iter().map(|(name, value)| EmbeddingTable {
            name,
            dim: value.cols(),
            value,
            m: none(),
            v: none(),
        });
        ParamStore {
            dense: dense.collect(),
            tables: tables.collect(),
        }
    }

    fn find_mut<'a, T>(
        items: &'a mut [T],
        name: &str,
        name_of: impl Fn(&T) -> &String,
        kind: &'static str,
    ) -> Result<&'a mut T, MissError> {
        match items.iter_mut().find(|it| name_of(it) == name) {
            Some(it) => Ok(it),
            None => Err(MissError::UnknownParam {
                kind,
                name: name.to_string(),
            }),
        }
    }

    fn check_shape(
        what: &str,
        name: &str,
        expected: (usize, usize),
        got: (usize, usize),
    ) -> Result<(), MissError> {
        if expected == got {
            Ok(())
        } else {
            Err(MissError::ShapeMismatch {
                context: format!("{what} {name}"),
                expected,
                got,
            })
        }
    }

    /// FNV-1a hash over the raw bit patterns of every parameter value
    /// (dense matrices then embedding tables, in registration order).
    /// Two stores fingerprint equal iff their weights are *bitwise*
    /// identical — the equality the determinism regressions assert across
    /// thread counts and micro-batch schedules.
    pub fn params_fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |t: &Tensor| {
            for &v in t.as_slice() {
                h = (h ^ v.to_bits() as u64).wrapping_mul(0x100000001b3);
            }
        };
        for p in &self.dense {
            eat(&p.value);
        }
        for t in &self.tables {
            eat(&t.value);
        }
        h
    }
}

/// A snapshot of every parameter value (not the optimiser moments), used by
/// early stopping to restore the best-validation weights.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreSnapshot {
    dense: Vec<Tensor>,
    tables: Vec<Tensor>,
}

impl ParamStore {
    /// Clone all current parameter values.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            dense: self.dense.iter().map(|p| p.value.clone()).collect(),
            tables: self.tables.iter().map(|t| t.value.clone()).collect(),
        }
    }

    /// Restore values from a snapshot taken on this store. Parameters
    /// registered *after* the snapshot keep their current values.
    pub fn restore(&mut self, snap: &StoreSnapshot) {
        for (p, v) in self.dense.iter_mut().zip(&snap.dense) {
            p.value = v.clone();
        }
        for (t, v) in self.tables.iter_mut().zip(&snap.tables) {
            t.value = v.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_get_or_create_by_name() {
        let mut s = ParamStore::new();
        let a = s.dense("w", 2, 3, Tensor::zeros);
        let b = s.dense("w", 2, 3, |r, c| Tensor::full(r, c, 9.0));
        assert_eq!(a, b);
        assert_eq!(s.dense_value(a).get(0, 0), 0.0, "second init ignored");
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn dense_shape_conflict_panics() {
        let mut s = ParamStore::new();
        s.dense("w", 2, 3, Tensor::zeros);
        s.dense("w", 3, 2, Tensor::zeros);
    }

    #[test]
    fn table_gather() {
        let mut s = ParamStore::new();
        let t = s.table("emb", 4, 2, |r, c| {
            Tensor::from_fn(r, c, |i, j| (i * 10 + j) as f32)
        });
        let g = s.table_ref(t).gather(&[3, 0, 3]);
        assert_eq!(g.row(0), &[30.0, 31.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[30.0, 31.0]);
    }

    #[test]
    fn fingerprint_tracks_bitwise_weight_changes() {
        let build = || {
            let mut s = ParamStore::new();
            s.dense("w", 2, 3, |r, c| Tensor::from_fn(r, c, |i, j| (i + j) as f32));
            s.table("e", 4, 2, |r, c| Tensor::full(r, c, 0.5));
            s
        };
        let a = build();
        let mut b = build();
        assert_eq!(a.params_fingerprint(), b.params_fingerprint());
        let id = b.dense("w", 2, 3, Tensor::zeros);
        b.dense_value_mut(id).as_mut_slice()[0] += 1e-7;
        assert_ne!(
            a.params_fingerprint(),
            b.params_fingerprint(),
            "a one-ulp weight change must flip the fingerprint"
        );
    }

    #[test]
    fn views_expose_values_and_moments_in_registration_order() {
        let mut s = ParamStore::new();
        s.dense("w1", 1, 2, |r, c| Tensor::full(r, c, 1.0));
        s.dense("w2", 2, 2, |r, c| Tensor::full(r, c, 2.0));
        s.table("e", 3, 2, |r, c| Tensor::full(r, c, 3.0));
        let names: Vec<&str> = s.dense_views().map(|p| p.name).collect();
        assert_eq!(names, ["w1", "w2"]);
        let v = s.dense_views().next().expect("w1 view");
        assert_eq!(v.value.get(0, 1), 1.0);
        assert_eq!(v.m.shape(), (1, 2), "moments travel with the view");
        assert_eq!(s.table_views().count(), 1);
    }

    #[test]
    fn typed_setters_reject_unknown_names_and_bad_shapes() {
        use miss_util::MissError;
        let mut s = ParamStore::new();
        s.dense("w", 2, 3, Tensor::zeros);
        s.table("e", 4, 2, Tensor::zeros);

        let err = s.set_dense_param("nope", Tensor::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, MissError::UnknownParam { kind: "dense param", .. }));

        let err = s.set_dense_param("w", Tensor::zeros(3, 2)).unwrap_err();
        assert!(matches!(
            err,
            MissError::ShapeMismatch { expected: (2, 3), got: (3, 2), .. }
        ));

        let err = s
            .set_table_moments("e", Tensor::zeros(4, 2), Tensor::zeros(1, 1))
            .unwrap_err();
        assert!(matches!(err, MissError::ShapeMismatch { .. }));

        s.set_dense_param("w", Tensor::full(2, 3, 9.0)).expect("good shape");
        let id = s.dense("w", 2, 3, init_zeros);
        assert_eq!(s.dense_value(id).get(0, 0), 9.0);
        s.set_table_param("e", Tensor::full(4, 2, 7.0)).expect("good shape");
        s.set_dense_moments("w", Tensor::full(2, 3, 0.1), Tensor::full(2, 3, 0.2))
            .expect("moments load");
        let view = s.dense_views().next().expect("view");
        assert_eq!(view.m.get(0, 0), 0.1);
        assert_eq!(view.v.get(1, 2), 0.2);
    }

    fn init_zeros(r: usize, c: usize) -> Tensor {
        Tensor::zeros(r, c)
    }

    #[test]
    fn num_params_counts_everything() {
        let mut s = ParamStore::new();
        s.dense("w", 2, 3, Tensor::zeros);
        s.table("e", 5, 4, Tensor::zeros);
        assert_eq!(s.num_params(), 6 + 20);
    }
}
