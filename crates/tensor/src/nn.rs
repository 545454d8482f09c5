//! Neural-network layers shared by every TGNN in the model zoo.
//!
//! Each layer owns [`ParamId`]s inside a [`ParamStore`] and builds its
//! forward computation onto a [`Graph`]. The layers mirror the building
//! blocks named in the paper: linear/MLP decoders, GRU memory updaters
//! (TGN/JODIE), Bochner time encoding (TGAT Eq. continuous-time encoding),
//! and multi-head temporal attention (TGAT/TGN/CAWN).

use crate::init::{self, SeededRng};
use crate::matrix::Matrix;
use crate::params::{Graph, ParamId, ParamStore};
use crate::tape::{Activation, Var};

/// Fully-connected layer `y = xW + b`.
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SeededRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        self.forward_act(g, x, Activation::None)
    }

    /// Forward with a fused activation epilogue — one tape node for
    /// matmul + bias + activation (see [`crate::tape::Tape::linear_affine`]).
    pub fn forward_act(&self, g: &mut Graph, x: Var, act: Activation) -> Var {
        debug_assert_eq!(g.shape(x).1, self.in_dim, "Linear: input width");
        let w = g.param(self.w);
        let b = g.param(self.b);
        g.linear_affine(x, w, b, act)
    }

    /// `src[indices]·W + b` for rows of an external table (node/edge
    /// features, detached memory): each distinct row is projected once and
    /// the results are gathered — one tape node, bit-identical to
    /// `gather_rows_from` followed by [`Linear::forward`] (see
    /// [`crate::tape::Tape::gather_linear_affine`]).
    pub fn forward_gathered(&self, g: &mut Graph, src: &Matrix, indices: &[usize]) -> Var {
        debug_assert_eq!(src.cols(), self.in_dim, "Linear: source width");
        let w = g.param(self.w);
        let b = g.param(self.b);
        g.gather_linear_affine(src, indices, w, b, Activation::None)
    }
}

/// Two-layer MLP with ReLU, the decoder head used across the pipeline.
pub struct Mlp {
    pub fc1: Linear,
    pub fc2: Linear,
}

impl Mlp {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SeededRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, rng, &format!("{name}.fc1"), in_dim, hidden),
            fc2: Linear::new(store, rng, &format!("{name}.fc2"), hidden, out_dim),
        }
    }

    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let h = self.fc1.forward_act(g, x, Activation::Relu);
        self.fc2.forward(g, h)
    }
}

/// Merge layer: `MLP([a | b])`, the edge decoder of TGN/TGAT.
pub struct MergeLayer {
    pub mlp: Mlp,
}

impl MergeLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SeededRng,
        name: &str,
        dim_a: usize,
        dim_b: usize,
        hidden: usize,
        out_dim: usize,
    ) -> Self {
        MergeLayer {
            mlp: Mlp::new(store, rng, name, dim_a + dim_b, hidden, out_dim),
        }
    }

    pub fn forward(&self, g: &mut Graph, a: Var, b: Var) -> Var {
        let cat = g.concat_cols(a, b);
        self.mlp.forward(g, cat)
    }
}

/// GRU cell: the memory updater of TGN and the trajectory RNN of JODIE.
pub struct GruCell {
    wz: Linear,
    uz: ParamId,
    wr: Linear,
    ur: ParamId,
    wh: Linear,
    uh: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl GruCell {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SeededRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        GruCell {
            wz: Linear::new(store, rng, &format!("{name}.wz"), in_dim, hidden),
            uz: store.add(
                format!("{name}.uz"),
                init::xavier_uniform(hidden, hidden, rng),
            ),
            wr: Linear::new(store, rng, &format!("{name}.wr"), in_dim, hidden),
            ur: store.add(
                format!("{name}.ur"),
                init::xavier_uniform(hidden, hidden, rng),
            ),
            wh: Linear::new(store, rng, &format!("{name}.wh"), in_dim, hidden),
            uh: store.add(
                format!("{name}.uh"),
                init::xavier_uniform(hidden, hidden, rng),
            ),
            in_dim,
            hidden,
        }
    }

    /// One step: `x` is n×in_dim, `h` is n×hidden → new hidden n×hidden.
    pub fn forward(&self, g: &mut Graph, x: Var, h: Var) -> Var {
        let uz = g.param(self.uz);
        let ur = g.param(self.ur);
        let uh = g.param(self.uh);

        let z = {
            let a = self.wz.forward(g, x);
            let b = g.matmul(h, uz);
            let s = g.add(a, b);
            g.sigmoid(s)
        };
        let r = {
            let a = self.wr.forward(g, x);
            let b = g.matmul(h, ur);
            let s = g.add(a, b);
            g.sigmoid(s)
        };
        let h_tilde = {
            let a = self.wh.forward(g, x);
            let rh = g.mul(r, h);
            let b = g.matmul(rh, uh);
            let s = g.add(a, b);
            g.tanh(s)
        };
        // h' = (1 - z) ⊙ h + z ⊙ h̃
        let neg_z = g.neg(z);
        let one_minus_z = g.add_scalar(neg_z, 1.0);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, h_tilde);
        g.add(keep, update)
    }
}

/// Bochner-style functional time encoding: `cos(Δt·ω + φ)` (TGAT §3).
///
/// Frequencies are initialized on a log-spaced grid (as in the reference
/// implementations) and fine-tuned by gradient descent.
pub struct TimeEncode {
    pub omega: ParamId,
    pub phase: ParamId,
    pub dim: usize,
}

impl TimeEncode {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let mut w = Matrix::zeros(1, dim);
        for i in 0..dim {
            // 1 / 10^(i * 9 / dim): spans ~9 decades of time scales.
            w.set(0, i, 1.0 / 10f32.powf(i as f32 * 9.0 / dim as f32));
        }
        let omega = store.add(format!("{name}.omega"), w);
        let phase = store.add(format!("{name}.phase"), Matrix::zeros(1, dim));
        TimeEncode { omega, phase, dim }
    }

    /// `dt` is an n×1 column of time deltas → n×dim encoding.
    pub fn forward(&self, g: &mut Graph, dt: Var) -> Var {
        debug_assert_eq!(g.shape(dt).1, 1, "TimeEncode: dt must be n×1");
        let omega = g.param(self.omega);
        let phase = g.param(self.phase);
        let scaled = g.matmul(dt, omega);
        let shifted = g.add_row_broadcast(scaled, phase);
        g.cos(shifted)
    }

    /// Encode a plain slice of deltas through the fused
    /// [`crate::tape::Tape::time_encode_fused`] op: one node instead of the
    /// four-node leaf → matmul → broadcast → cos chain, with repeated Δt
    /// rows memoized within the call. Bit-identical to [`TimeEncode::forward`]
    /// over `Matrix::column(dts)`.
    pub fn forward_slice(&self, g: &mut Graph, dts: &[f32]) -> Var {
        let omega = g.param(self.omega);
        let phase = g.param(self.phase);
        g.time_encode_fused(dts, omega, phase)
    }
}

/// Multi-head temporal attention over fixed-size neighbor groups.
///
/// This is the aggregation operator of TGAT (and the embedding module of
/// TGN): each target node attends over its `group` sampled temporal
/// neighbors; padded slots are masked out. Satisfies the Appendix-C
/// divisibility constraint by construction (`model_dim % heads == 0`).
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    pub heads: usize,
    pub model_dim: usize,
}

impl MultiHeadAttention {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut SeededRng,
        name: &str,
        query_dim: usize,
        key_dim: usize,
        model_dim: usize,
        heads: usize,
        out_dim: usize,
    ) -> Self {
        assert!(
            heads > 0 && model_dim.is_multiple_of(heads),
            "model_dim must divide by heads (Eq. 1)"
        );
        MultiHeadAttention {
            wq: Linear::new(store, rng, &format!("{name}.wq"), query_dim, model_dim),
            wk: Linear::new(store, rng, &format!("{name}.wk"), key_dim, model_dim),
            wv: Linear::new(store, rng, &format!("{name}.wv"), key_dim, model_dim),
            wo: Linear::new(store, rng, &format!("{name}.wo"), model_dim, out_dim),
            heads,
            model_dim,
        }
    }

    /// `query` n×query_dim; `keys` (n·group)×key_dim; `mask` row-validity.
    ///
    /// All heads run inside one fused
    /// [`crate::tape::Tape::multi_head_grouped_attention`] node
    /// reading strided per-head views of the packed Q/K/V projections — no
    /// per-head `slice_cols` copies, per-head attention nodes, or
    /// `concat_cols_many`.
    pub fn forward(
        &self,
        g: &mut Graph,
        query: Var,
        keys: Var,
        group: usize,
        mask: &[bool],
    ) -> Var {
        let q = self.wq.forward(g, query);
        let k = self.wk.forward(g, keys);
        let v = self.wv.forward(g, keys);
        let att = g.multi_head_grouped_attention(q, k, v, self.heads, group, mask);
        self.wo.forward(g, att)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;
    use crate::optim::Adam;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut r = rng(1);
        let lin = Linear::new(&mut store, &mut r, "l", 4, 3);
        store
            .value_mut(lin.b)
            .as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = 1.0);
        let mut g = Graph::new(&store);
        let x = g.input(Matrix::zeros(5, 4));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.shape(y), (5, 3));
        // zero input → bias only
        assert!(g
            .value(y)
            .as_slice()
            .iter()
            .all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gru_interpolates_between_keep_and_update() {
        // With all-zero weights, z = 0.5, r = 0.5, h̃ = 0, so h' = 0.5 h.
        let mut store = ParamStore::new();
        let mut r = rng(1);
        let gru = GruCell::new(&mut store, &mut r, "gru", 2, 3);
        for p in &mut store.params {
            p.value.fill_zero();
        }
        let mut g = Graph::new(&store);
        let x = g.input(Matrix::zeros(1, 2));
        let h = g.input(Matrix::from_rows(&[&[1.0, -2.0, 4.0]]));
        let h2 = gru.forward(&mut g, x, h);
        let got = g.value(h2);
        assert!(got.approx_eq(&Matrix::from_rows(&[&[0.5, -1.0, 2.0]]), 1e-5));
    }

    #[test]
    fn time_encode_is_bounded_and_time_sensitive() {
        let mut store = ParamStore::new();
        let te = TimeEncode::new(&mut store, "te", 8);
        let mut g = Graph::new(&store);
        let enc = te.forward_slice(&mut g, &[0.0, 10.0, 1000.0]);
        let m = g.value(enc);
        assert_eq!(m.shape(), (3, 8));
        assert!(m.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
        // Δt = 0 gives cos(0) = 1 everywhere (phase starts at 0).
        assert!(m.row(0).iter().all(|&x| (x - 1.0).abs() < 1e-6));
        // Distinct Δt must produce distinct encodings.
        assert_ne!(m.row(1), m.row(2));
    }

    #[test]
    fn attention_masks_padded_neighbors() {
        let mut store = ParamStore::new();
        let mut r = rng(2);
        let att = MultiHeadAttention::new(&mut store, &mut r, "att", 4, 4, 8, 2, 4);
        let mut g = Graph::new(&store);
        let q = g.input(Matrix::full(1, 4, 0.5));
        // Two neighbor slots; the second is garbage but masked off.
        let mut keys = Matrix::full(2, 4, 0.1);
        keys.row_mut(1).iter_mut().for_each(|x| *x = 1e6);
        let k = g.input(keys);
        let out = att.forward(&mut g, q, k, 2, &[true, false]);
        assert!(g.value(out).as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn attention_all_masked_returns_zero_contribution() {
        let mut store = ParamStore::new();
        let mut r = rng(2);
        let att = MultiHeadAttention::new(&mut store, &mut r, "att", 4, 4, 8, 2, 4);
        // Zero the output bias so a zero attention result stays zero.
        store.value_mut(att.wo.b).fill_zero();
        let mut g = Graph::new(&store);
        let q = g.input(Matrix::full(1, 4, 0.5));
        let k = g.input(Matrix::full(2, 4, 0.3));
        let out = att.forward(&mut g, q, k, 2, &[false, false]);
        assert!(g.value(out).as_slice().iter().all(|&x| x.abs() < 1e-6));
    }

    /// End-to-end: an MLP must learn XOR, proving layers + autograd + Adam
    /// compose into a working training loop.
    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new();
        let mut r = rng(42);
        let mlp = Mlp::new(&mut store, &mut r, "xor", 2, 8, 1);
        let mut adam = Adam::new(0.05);
        let xs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let ys = [0.0, 1.0, 1.0, 0.0];
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new(&store);
            let x = g.input(xs.clone());
            let logits = mlp.forward(&mut g, x);
            let loss = g.bce_with_logits(logits, &ys);
            last_loss = g.value(loss).scalar();
            let grads = g.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last_loss < 0.1, "XOR loss stayed at {last_loss}");
        // Check predictions.
        let mut g = Graph::new(&store);
        let x = g.input(xs);
        let logits = mlp.forward(&mut g, x);
        let probs = g.sigmoid(logits);
        let p = g.value(probs);
        for (i, &y) in ys.iter().enumerate() {
            let pi = p.get(i, 0);
            assert!(
                (pi - y).abs() < 0.3,
                "sample {i}: predicted {pi}, expected {y}"
            );
        }
    }
}
