//! Property test of `Adam`'s sparse path: for random tables and random
//! lookups with rows repeated within and across gradients and tables, every
//! table's weights and moments equal, bit for bit, a naive reference that
//! sums each `(table, row)`'s gradients in arrival order and then applies
//! lazy Adam to that row.

use miss_nn::{Adam, Graph, ParamStore};
use miss_tensor::Tensor;
use miss_testkit::{prop_assert_eq, properties};
use miss_util::Rng;

const LR: f32 = 0.05;
const L2: f32 = 0.01;

/// One table's weights and moments as raw bits.
#[derive(Clone, PartialEq, Debug)]
struct TableState {
    dim: usize,
    value: Vec<u32>,
    m: Vec<u32>,
    v: Vec<u32>,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn snapshot(store: &ParamStore) -> Vec<TableState> {
    store
        .table_views()
        .map(|t| TableState {
            dim: t.value.cols(),
            value: bits(t.value),
            m: bits(t.m),
            v: bits(t.v),
        })
        .collect()
}

/// Sum every `(table, row)`'s gradient rows in arrival order, then apply
/// Adam's lazy update to each touched row: the merge the optimiser must
/// reproduce, written without scratch buffers. `sparse` holds
/// `(table, indices, rows)` in the order the optimiser receives them.
fn reference_step(tables: &mut [TableState], sparse: &[(usize, Vec<u32>, Tensor)], t: i32) {
    let adam = Adam::new(LR, L2);
    let bc1 = 1.0 - adam.beta1.powi(t);
    let bc2 = 1.0 - adam.beta2.powi(t);
    let mut sums: Vec<Vec<Option<Vec<f32>>>> = tables
        .iter()
        .map(|s| vec![None; s.value.len() / s.dim])
        .collect();
    for (table, indices, rows) in sparse {
        for (r, &idx) in indices.iter().enumerate() {
            let sum = sums[*table][idx as usize].get_or_insert_with(|| vec![0.0; rows.cols()]);
            for (acc, &g) in sum.iter_mut().zip(rows.row(r)) {
                *acc += g;
            }
        }
    }
    for (state, rows) in tables.iter_mut().zip(&sums) {
        for (idx, sum) in rows.iter().enumerate() {
            let Some(sum) = sum else { continue };
            for (k, &g) in sum.iter().enumerate() {
                let e = idx * state.dim + k;
                let mut w = f32::from_bits(state.value[e]);
                let mut m = f32::from_bits(state.m[e]);
                let mut v = f32::from_bits(state.v[e]);
                let gi = g + adam.l2 * w;
                m = adam.beta1 * m + (1.0 - adam.beta1) * gi;
                v = adam.beta2 * v + (1.0 - adam.beta2) * gi * gi;
                let mhat = m / bc1;
                let vhat = v / bc2;
                w -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
                state.value[e] = w.to_bits();
                state.m[e] = m.to_bits();
                state.v[e] = v.to_bits();
            }
        }
    }
}

properties! {
    #![config(cases = 48)]

    fn sparse_merge_matches_arrival_order_reference(n_tables in 1usize..4, seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let mut store = ParamStore::new();
        let ids: Vec<_> = (0..n_tables)
            .map(|t| {
                let rows = rng.range(1, 65);
                let dim = rng.range(1, 17);
                let mut init = rng.fork(t as u64);
                store.table(&format!("t{t}"), rows, dim, |r, c| {
                    Tensor::from_fn(r, c, |_, _| init.uniform(-1.0, 1.0))
                })
            })
            .collect();
        let initial = snapshot(&store);
        let mut want = initial.clone();
        let mut touched: Vec<Vec<bool>> =
            initial.iter().map(|s| vec![false; s.value.len() / s.dim]).collect();
        let mut adam = Adam::new(LR, L2);
        for step in 1..=3 {
            // 1–6 lookups, each a separate SparseGrad; the first one seeds
            // the loss so every step has at least one.
            let mut g = Graph::new(&store);
            let mut loss = g.input(Tensor::scalar(0.0));
            for _ in 0..rng.range(1, 7) {
                let t = rng.below(n_tables);
                let vocab = touched[t].len();
                // Draw from a few rows so they repeat within and across lookups.
                let pool: Vec<u32> = (0..3).map(|_| rng.below(vocab) as u32).collect();
                let indices: Vec<u32> =
                    (0..rng.range(1, 9)).map(|_| pool[rng.below(3)]).collect();
                for &i in &indices {
                    touched[t][i as usize] = true;
                }
                let grad =
                    Tensor::from_fn(indices.len(), initial[t].dim, |_, _| rng.uniform(-2.0, 2.0));
                let e = g.embed(&store, ids[t], &indices);
                let c = g.input(grad);
                let p = g.tape.mul(e, c);
                let s = g.tape.sum_all(p);
                loss = g.tape.add(loss, s);
            }
            let grads = g.tape.backward(loss);
            let sparse: Vec<(usize, Vec<u32>, Tensor)> = grads
                .sparse
                .iter()
                .map(|sg| (sg.table_id, sg.indices.clone(), sg.grad_rows.clone()))
                .collect();
            reference_step(&mut want, &sparse, step);
            adam.step(&mut store, &g, grads);
            prop_assert_eq!(snapshot(&store), want.clone());
        }
        // Rows no step looked up keep their initial bits.
        for ((now, before), rows) in snapshot(&store).iter().zip(&initial).zip(&touched) {
            for (idx, &hit) in rows.iter().enumerate() {
                let span = idx * now.dim..(idx + 1) * now.dim;
                if !hit {
                    prop_assert_eq!(&now.value[span.clone()], &before.value[span.clone()]);
                    prop_assert_eq!(&now.m[span.clone()], &before.m[span.clone()]);
                    prop_assert_eq!(&now.v[span.clone()], &before.v[span]);
                }
            }
        }
    }
}
