//! Reverse-mode automatic differentiation on an arena tape.
//!
//! A [`Tape`] records every operation as a node; [`Var`] is a copyable handle
//! into the arena. Calling [`Tape::backward`] seeds the gradient of a scalar
//! output and walks the tape in reverse, accumulating gradients only into
//! the nodes that lie on a path from the requested `wrt` leaves to the
//! output. Parameters are ordinary leaves: [`crate::Graph::backward`] asks
//! for exactly the bound ones, and the optimizer reads those gradients.
//!
//! The design trades generality for auditability: each op's backward rule is
//! a hand-derived match arm, and every rule is checked against finite
//! differences in the test suite.

use crate::matrix::Matrix;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Activation fused into [`Tape::linear_affine`]. Each variant applies the
/// exact elementwise function of the corresponding standalone tape op
/// (`relu`/`sigmoid`/`tanh`), so fusing it changes no bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    None,
    Relu,
    Sigmoid,
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => stable_sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// Operation record; indices refer to parent nodes on the same tape.
enum Op {
    /// `pooled`: the storage came from the [`BufferPool`] and goes back at
    /// reset; otherwise it is caller-owned and dropped.
    Leaf {
        pooled: bool,
    },
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Neg(usize),
    Scale(usize, f32),
    AddScalar(usize),
    MatMul(usize, usize),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Cos(usize),
    SumAll(usize),
    AddRowBroadcast(usize, usize),
    MulColBroadcast(usize, usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    GatherRows(usize, Vec<usize>),
    SliceCols(usize, usize, usize),
    SliceRows(usize, usize, usize),
    GroupedAttention {
        q: usize,
        k: usize,
        v: usize,
        group: usize,
        scale: f32,
        /// Saved softmax weights, one `group`-sized block per query row
        /// (pool-granted n×group matrix, recycled at reset).
        weights: Matrix,
    },
    /// Fused multi-head grouped attention — see
    /// [`Tape::multi_head_grouped_attention`]. One node per layer consumes
    /// the packed Q/K/V projections through strided per-head views; the
    /// saved softmax weights are a pool-granted n×(heads·group) matrix laid
    /// out `[row][head][group]`, recycled at reset.
    MultiHeadGroupedAttention {
        q: usize,
        k: usize,
        v: usize,
        heads: usize,
        group: usize,
        scale: f32,
        weights: Matrix,
    },
    /// Fused `act(x·w + b)` — see [`Tape::linear_affine`].
    LinearAffine {
        x: usize,
        w: usize,
        b: usize,
        act: Activation,
    },
    /// Fused `src[indices]·w + b` — see [`Tape::gather_linear_affine`].
    /// `rows` holds the distinct source rows X_u (a pool buffer) and
    /// `inv[r]` is output row `r`'s row of X_u (a [`ProjScratch`] list);
    /// both are recycled at reset.
    GatherLinearAffine {
        rows: Matrix,
        inv: Vec<usize>,
        w: usize,
        b: usize,
    },
    /// Fused `cos(dt·ω + φ)` — see [`Tape::time_encode_fused`]. The Δt
    /// column is saved (pool-granted, recycled at reset) for the backward
    /// `dtᵀ·gs` product.
    TimeEncodeFused {
        omega: usize,
        phase: usize,
        dts: Matrix,
    },
    BceWithLogits {
        logits: usize,
        targets: Vec<f32>,
    },
    SoftmaxCrossEntropy {
        logits: usize,
        labels: Vec<usize>,
        probs: Matrix,
    },
}

impl Op {
    /// Indices of the nodes this op reads — always lower than the node's
    /// own index, which is what lets [`Tape::backward`] mark liveness in one
    /// forward sweep.
    fn parents(&self) -> impl Iterator<Item = usize> {
        let p: [Option<usize>; 3] = match self {
            Op::Leaf { .. } => [None; 3],
            Op::Neg(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Cos(a)
            | Op::SumAll(a)
            | Op::GatherRows(a, _)
            | Op::SliceCols(a, _, _)
            | Op::SliceRows(a, _, _)
            | Op::BceWithLogits { logits: a, .. }
            | Op::SoftmaxCrossEntropy { logits: a, .. } => [Some(*a), None, None],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::ConcatRows(a, b)
            | Op::TimeEncodeFused {
                phase: a, omega: b, ..
            }
            | Op::GatherLinearAffine { b: a, w: b, .. } => [Some(*a), Some(*b), None],
            Op::GroupedAttention { q, k, v, .. }
            | Op::MultiHeadGroupedAttention { q, k, v, .. } => [Some(*q), Some(*k), Some(*v)],
            Op::LinearAffine { x, w, b, .. } => [Some(*b), Some(*x), Some(*w)],
        };
        p.into_iter().flatten()
    }
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Recycler for every `f32` buffer the tape hands out: one free list per
/// power-of-two capacity class. A buffer of capacity `2^c` serves any
/// length up to `2^c`, so a row count no earlier batch produced is served
/// by a warm buffer of its class, or of the smallest larger class that has
/// one free.
///
/// [`Tape::reset`] gives back exactly the buffers `take` handed out and
/// drops caller-owned leaf storage. A class therefore gains a buffer only
/// while every buffer of that class and above is out at once, so no class
/// ever holds more buffers than one graph holds at once — the bound needs
/// no cap and no trim.
#[derive(Default)]
struct BufferPool {
    /// `free[c]` holds buffers of capacity at least `2^c`.
    free: Vec<Vec<Vec<f32>>>,
    /// Heap bytes in the free lists.
    free_bytes: u64,
    /// Buffers handed out and not yet given back. [`Tape::reset`] returns
    /// them all, so this is 0 after every reset (the sanitizer's leak check).
    outstanding: usize,
}

impl BufferPool {
    /// A buffer of length `len` with arbitrary contents. On a hit only the
    /// part beyond the buffer's previous length is written (zeros); a miss
    /// allocates the full class capacity.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let class = len.next_power_of_two().ilog2() as usize;
        self.outstanding += 1;
        let mut buf = match self.free.iter_mut().skip(class).find_map(Vec::pop) {
            Some(buf) => {
                benchtemp_obs::counters::TAPE_POOL_HITS.incr();
                self.free_bytes -= (buf.capacity() * std::mem::size_of::<f32>()) as u64;
                buf
            }
            None => {
                benchtemp_obs::counters::TAPE_POOL_MISSES.incr();
                Vec::with_capacity(1 << class)
            }
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Give back a buffer `take` handed out.
    fn put(&mut self, buf: Vec<f32>) {
        let class = buf.capacity().ilog2() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.outstanding -= 1;
        self.free_bytes += (buf.capacity() * std::mem::size_of::<f32>()) as u64;
        self.free[class].push(buf);
    }
}

/// Index scratch behind [`Tape::gather_linear_affine`]; its row buffers
/// come from the [`BufferPool`] like every other `f32` buffer.
#[derive(Default)]
struct ProjScratch {
    /// `stamp[i]` is 1 + the slot of source row `i` in the current call's
    /// distinct list, 0 when unseen. Sized to the largest source table yet;
    /// a call clears only the entries it set.
    stamp: Vec<u32>,
    /// Distinct source rows of the current call, in first-seen order.
    uniq: Vec<usize>,
    /// Free `inv` index lists.
    free_inv: Vec<Vec<usize>>,
}

impl ProjScratch {
    /// Fill `uniq` with the distinct rows of `indices` in first-seen order
    /// and `inv` with each index's slot in it.
    fn dedup(&mut self, src_rows: usize, indices: &[usize], inv: &mut Vec<usize>) {
        if let Some(&bad) = indices.iter().find(|&&i| i >= src_rows) {
            panic!("gather_linear_affine: index {bad} out of {src_rows} rows");
        }
        if self.stamp.len() < src_rows {
            self.stamp.resize(src_rows, 0);
        }
        self.uniq.clear();
        inv.clear();
        for &i in indices {
            let slot = match self.stamp[i] {
                0 => {
                    self.uniq.push(i);
                    self.stamp[i] = u32::try_from(self.uniq.len()).expect("row slot fits u32");
                    self.uniq.len() - 1
                }
                s => s as usize - 1,
            };
            inv.push(slot);
        }
        for &i in &self.uniq {
            self.stamp[i] = 0;
        }
    }
}

/// Arena tape for one forward/backward round.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Δt-bits → first-row memo scratch for [`Tape::time_encode_fused`].
    /// Cleared (capacity kept) at the start of each call; lives on the tape
    /// so steady-state batches don't re-allocate it. Lookup-only — never
    /// iterated — so hash order can't leak into results.
    te_memo: std::collections::HashMap<u32, usize>,
    proj: ProjScratch,
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            pool: BufferPool::default(),
            te_memo: std::collections::HashMap::new(),
            proj: ProjScratch::default(),
        }
    }

    /// Number of recorded nodes (useful for budgeting in benches).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear all nodes while keeping the node arena's capacity. Every
    /// buffer the pool handed out goes back to it — op outputs, pooled
    /// leaves, the second matrix some ops carry — so the next forward pass
    /// allocates (almost) nothing. Caller-owned leaf storage
    /// ([`Tape::leaf`]) is dropped: pooling it would grow a free list every
    /// batch.
    ///
    /// With `BENCHTEMP_SANITIZE=1` this is also the buffer leak check:
    /// after the return, no buffer may still be out. A pool buffer dropped
    /// on an early-exit path instead of landing in a node would make the
    /// pool allocate afresh every batch; the sanitizer turns that into a
    /// panic.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if !matches!(node.op, Op::Leaf { pooled: false }) {
                self.pool.put(node.value.into_vec());
            }
            match node.op {
                Op::TimeEncodeFused { dts: second, .. }
                | Op::GroupedAttention {
                    weights: second, ..
                }
                | Op::MultiHeadGroupedAttention {
                    weights: second, ..
                } => self.pool.put(second.into_vec()),
                Op::GatherLinearAffine { rows, inv, .. } => {
                    self.pool.put(rows.into_vec());
                    self.proj.free_inv.push(inv);
                }
                _ => {}
            }
        }
        if crate::sanitize::enabled() {
            assert_eq!(
                self.pool.outstanding, 0,
                "sanitize[tape]: buffer leak: {} pool buffers still out after reset — \
                 a forward-op path dropped pooled storage",
                self.pool.outstanding,
            );
        }
    }

    /// Heap bytes in the buffer pool's free lists.
    pub(crate) fn pool_free_bytes(&self) -> u64 {
        self.pool.free_bytes
    }

    /// Matrix over a pool buffer with arbitrary contents — for ops that
    /// overwrite every entry.
    fn alloc_raw(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.pool.take(rows * cols))
    }

    /// Zero-filled matrix over a pool buffer — for accumulation ops.
    fn alloc_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.alloc_raw(rows, cols);
        m.fill_zero();
        m
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        benchtemp_obs::counters::TAPE_NODES_ALLOCATED.incr();
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Insert a constant/input/parameter leaf over caller-owned storage,
    /// which [`Tape::reset`] drops.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf { pooled: false })
    }

    /// Leaf whose storage comes from the recycled buffer pool: copies `src`
    /// into a pooled buffer. Bit-identical to `leaf(src.clone())`, minus
    /// the steady-state allocation.
    pub fn leaf_copied(&mut self, src: &Matrix) -> Var {
        let (r, c) = src.shape();
        let mut m = self.alloc_raw(r, c);
        m.copy_from(src);
        self.push(m, Op::Leaf { pooled: true })
    }

    /// Read a node's value.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- elementwise & linear-algebra ops ------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x + y);
        self.push(value, Op::Add(a.0, b.0))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x - y);
        self.push(value, Op::Sub(a.0, b.0))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x * y);
        self.push(value, Op::Mul(a.0, b.0))
    }

    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.map_op(a, |x| -x);
        self.push(value, Op::Neg(a.0))
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.map_op(a, |x| s * x);
        self.push(value, Op::Scale(a.0, s))
    }

    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.map_op(a, |x| x + s);
        self.push(value, Op::AddScalar(a.0))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, _) = self.shape(a);
        let (_, n) = self.shape(b);
        let mut out = self.alloc_raw(m, n);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a.0, b.0))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.map_op(a, stable_sigmoid);
        self.push(value, Op::Sigmoid(a.0))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.map_op(a, f32::tanh);
        self.push(value, Op::Tanh(a.0))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.map_op(a, |x| x.max(0.0));
        self.push(value, Op::Relu(a.0))
    }

    pub fn cos(&mut self, a: Var) -> Var {
        let value = self.map_op(a, f32::cos);
        self.push(value, Op::Cos(a.0))
    }

    /// Pooled elementwise map: recycled output, fused single pass.
    fn map_op(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
        let (r, c) = self.shape(a);
        let mut out = self.alloc_raw(r, c);
        self.nodes[a.0].value.map_into(&mut out, f);
        out
    }

    /// Pooled elementwise combine: recycled output, fused single pass.
    fn zip_op(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let (r, c) = self.shape(a);
        let mut out = self.alloc_raw(r, c);
        self.nodes[a.0]
            .value
            .zip_into(&self.nodes[b.0].value, &mut out, f);
        out
    }

    // ---- reductions -----------------------------------------------------

    /// Sum of all entries → 1×1.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let mut out = self.alloc_raw(1, 1);
        out.set(0, 0, s);
        self.push(out, Op::SumAll(a.0))
    }

    // ---- broadcasting ----------------------------------------------------

    /// `a (n×m) + b (1×m)` broadcast over rows (bias add).
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.alloc_raw(shape.0, shape.1);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(bm.rows(), 1, "add_row_broadcast: b must be 1×m");
        assert_eq!(am.cols(), bm.cols(), "add_row_broadcast: width mismatch");
        out.copy_from(am);
        for r in 0..out.rows() {
            for (o, &x) in out.row_mut(r).iter_mut().zip(bm.row(0)) {
                *o += x;
            }
        }
        self.push(out, Op::AddRowBroadcast(a.0, b.0))
    }

    /// `a (n×m) * c (n×1)` broadcast over columns (row-wise scaling).
    pub fn mul_col_broadcast(&mut self, a: Var, c: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.alloc_raw(shape.0, shape.1);
        let (am, cm) = (&self.nodes[a.0].value, &self.nodes[c.0].value);
        assert_eq!(cm.cols(), 1, "mul_col_broadcast: c must be n×1");
        assert_eq!(am.rows(), cm.rows(), "mul_col_broadcast: height mismatch");
        out.copy_from(am);
        for r in 0..out.rows() {
            let s = cm.get(r, 0);
            out.row_mut(r).iter_mut().for_each(|x| *x *= s);
        }
        self.push(out, Op::MulColBroadcast(a.0, c.0))
    }

    // ---- structural ops --------------------------------------------------

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "concat_cols: row count mismatch");
        let mut out = self.alloc_raw(ar, ac + bc);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for r in 0..ar {
            out.row_mut(r)[..ac].copy_from_slice(am.row(r));
            out.row_mut(r)[ac..].copy_from_slice(bm.row(r));
        }
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Horizontal concatenation of any number of vars.
    pub fn concat_cols_many(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols_many: empty input");
        let mut acc = vars[0];
        for &v in &vars[1..] {
            acc = self.concat_cols(acc, v);
        }
        acc
    }

    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, bc, "concat_rows: column count mismatch");
        let mut out = self.alloc_raw(ar + br, ac);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        out.as_mut_slice()[..ar * ac].copy_from_slice(am.as_slice());
        out.as_mut_slice()[ar * ac..].copy_from_slice(bm.as_slice());
        self.push(out, Op::ConcatRows(a.0, b.0))
    }

    /// Gather rows (embedding lookup); backward scatter-adds.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let (rows, cols) = self.shape(a);
        let mut out = self.alloc_raw(indices.len(), cols);
        let m = &self.nodes[a.0].value;
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < rows, "gather_rows: index {src} out of {rows} rows");
            out.row_mut(dst).copy_from_slice(m.row(src));
        }
        self.push(out, Op::GatherRows(a.0, indices.to_vec()))
    }

    /// Pooled SoA gather leaf: rows of an external matrix (node/edge
    /// feature tables, memory states) land in one pool-granted buffer via
    /// run-length-coalesced contiguous copies
    /// ([`Matrix::gather_rows_into`]), replacing the per-element scalar
    /// gather + `leaf` pair the models used to build. Each destination row
    /// is byte-for-byte the source row, so coalescing cannot change bits;
    /// the run count is a pure function of the index list and is ticked
    /// into `tape.gather_coalesced_runs`. Like `gather_rows` on a leaf,
    /// no gradient flows to `src`.
    pub fn gather_rows_from(&mut self, src: &Matrix, indices: &[usize]) -> Var {
        let _span = benchtemp_obs::span("gather");
        let mut out = self.alloc_raw(indices.len(), src.cols());
        let runs = src.gather_rows_into(indices, &mut out);
        benchtemp_obs::counters::GATHER_COALESCED_RUNS.add(runs);
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(out, Op::Leaf { pooled: true })
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape(a);
        assert!(
            start < end && end <= cols,
            "slice_cols: bad range {start}..{end}"
        );
        let mut out = self.alloc_raw(rows, end - start);
        let m = &self.nodes[a.0].value;
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&m.row(r)[start..end]);
        }
        self.push(out, Op::SliceCols(a.0, start, end))
    }

    /// Row slice `[start, end)` — one contiguous copy of the row range; the
    /// backward pass writes the gradient back into that range. This is how
    /// the tri-batched TGAT embedding splits the stacked src/dst/neg towers
    /// back apart.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape(a);
        assert!(
            start < end && end <= rows,
            "slice_rows: bad range {start}..{end}"
        );
        let mut out = self.alloc_raw(end - start, cols);
        let m = &self.nodes[a.0].value;
        out.as_mut_slice()
            .copy_from_slice(&m.as_slice()[start * cols..end * cols]);
        self.push(out, Op::SliceRows(a.0, start, end))
    }

    // ---- fused attention --------------------------------------------------

    /// Fused grouped scaled-dot-product attention.
    ///
    /// Query rows attend over fixed-size neighbor groups: `q` is n×d, `k` and
    /// `v` are (n·group)×d / (n·group)×dv, where rows `i·group .. (i+1)·group`
    /// of `k`/`v` are the candidates for query `i`. `mask[i*group+j] = false`
    /// excludes a padded neighbor. Rows whose mask is entirely false produce a
    /// zero output (and zero gradient), matching "no valid temporal neighbors".
    pub fn grouped_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        group: usize,
        mask: &[bool],
    ) -> Var {
        let (n, d) = self.shape(q);
        let dv = self.shape(v).1;
        let mut out = self.alloc_zeroed(n, dv);
        let mut weights = self.alloc_raw(n, group);
        let scale = 1.0 / (d as f32).sqrt();
        {
            let (qm, km, vm) = (
                &self.nodes[q.0].value,
                &self.nodes[k.0].value,
                &self.nodes[v.0].value,
            );
            assert_eq!(km.rows(), n * group, "grouped_attention: k rows != n*group");
            assert_eq!(vm.rows(), n * group, "grouped_attention: v rows != n*group");
            assert_eq!(km.cols(), d, "grouped_attention: k width != q width");
            assert_eq!(mask.len(), n * group, "grouped_attention: mask length");
            run_attention_rows(
                qm,
                km,
                vm,
                1,
                group,
                d,
                dv,
                scale,
                mask,
                &mut out,
                &mut weights,
            );
        }
        self.push(
            out,
            Op::GroupedAttention {
                q: q.0,
                k: k.0,
                v: v.0,
                group,
                scale,
                weights,
            },
        )
    }

    /// Fused multi-head grouped attention: every head of one attention
    /// layer in a single tape node.
    ///
    /// `q` is n×model_dim and `k`/`v` are (n·group)×model_dim — the packed
    /// projections, consumed through strided per-head column views
    /// (`[h·hd, (h+1)·hd)` of each row, `hd = model_dim/heads`) instead of
    /// the `3×heads` `slice_cols` buffer copies the per-head chain makes.
    /// Head outputs land directly in their column stripe of the output, so
    /// the `concat_cols_many` disappears too, and the hand-derived backward
    /// writes each head's stripe straight into the shared Q/K/V gradient
    /// buffers.
    ///
    /// Bit-identical to the unfused per-head chain (`slice_cols`×3 →
    /// `grouped_attention` per head → `concat_cols_many`): each head's
    /// scores, softmax, and accumulation run the same floating-point
    /// operation order over the same values, stripes are disjoint, and a
    /// `+=` accumulation from a zeroed buffer never produces `-0.0`, so the
    /// unfused chain's cross-head gradient `add_assign` of disjoint-stripe
    /// zero matrices is an exact no-op (see DESIGN.md §12).
    pub fn multi_head_grouped_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        group: usize,
        mask: &[bool],
    ) -> Var {
        let (n, model_dim) = self.shape(q);
        assert!(
            heads > 0 && model_dim.is_multiple_of(heads),
            "multi_head_grouped_attention: model_dim must divide by heads"
        );
        let hd = model_dim / heads;
        let mut out = self.alloc_zeroed(n, model_dim);
        let mut weights = self.alloc_raw(n, heads * group);
        let scale = 1.0 / (hd as f32).sqrt();
        {
            let (qm, km, vm) = (
                &self.nodes[q.0].value,
                &self.nodes[k.0].value,
                &self.nodes[v.0].value,
            );
            assert_eq!(
                km.rows(),
                n * group,
                "multi_head_grouped_attention: k rows != n*group"
            );
            assert_eq!(
                vm.rows(),
                n * group,
                "multi_head_grouped_attention: v rows != n*group"
            );
            assert_eq!(
                km.cols(),
                model_dim,
                "multi_head_grouped_attention: k width != q width"
            );
            assert_eq!(
                vm.cols(),
                model_dim,
                "multi_head_grouped_attention: v width != q width"
            );
            assert_eq!(
                mask.len(),
                n * group,
                "multi_head_grouped_attention: mask length"
            );
            run_attention_rows(
                qm,
                km,
                vm,
                heads,
                group,
                hd,
                hd,
                scale,
                mask,
                &mut out,
                &mut weights,
            );
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(
            out,
            Op::MultiHeadGroupedAttention {
                q: q.0,
                k: k.0,
                v: v.0,
                heads,
                group,
                scale,
                weights,
            },
        )
    }

    // ---- fused affine & time encoding -------------------------------------

    /// Fused `act(x·w + b)`: matmul, row-bias broadcast, and activation in
    /// one node and one output buffer, with a fused backward. Bit-identical
    /// to the chain `matmul` → `add_row_broadcast` → activation — the same
    /// matmul kernel fills the buffer and the epilogue applies
    /// `act(xw + b[j])` in the same per-element order the separate ops
    /// would (see DESIGN.md §11).
    pub fn linear_affine(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let (m, _) = self.shape(x);
        let n = self.shape(w).1;
        let mut out = self.alloc_raw(m, n);
        {
            let (xm, wm, bm) = (
                &self.nodes[x.0].value,
                &self.nodes[w.0].value,
                &self.nodes[b.0].value,
            );
            assert_eq!(bm.rows(), 1, "linear_affine: b must be 1×n");
            assert_eq!(bm.cols(), n, "linear_affine: bias width mismatch");
            xm.matmul_into(wm, &mut out);
            let brow = bm.row(0);
            crate::matrix::fill_rows_par(&mut out, m * n, |_r, row| {
                bias_act_epilogue(row, brow, act);
            });
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(
            out,
            Op::LinearAffine {
                x: x.0,
                w: w.0,
                b: b.0,
                act,
            },
        )
    }

    /// Fused `src[indices]·w + b` over rows of an external table (node or
    /// edge features): each distinct source row is projected once, then
    /// the projected rows are gathered, and the backward runs on the
    /// distinct rows too. Replaces [`Tape::gather_rows_from`] →
    /// [`Tape::linear_affine`], which projects a row again for every slot
    /// it fills.
    ///
    /// Bit-identical to the distinct-first chain `gather_rows_from(src,
    /// uniq)` → `linear_affine(·, w, b, None)` → `gather_rows(·, inv)`,
    /// with `uniq` the distinct indices in first-seen order. The forward
    /// also equals the gather-first pair bit for bit: the matmul kernel
    /// gives every row the same per-row FP order wherever the row sits
    /// (the determinism note on `matmul_row_kernel`), the bias epilogue is
    /// per element, and gathering is a copy. Backward: the output gradient
    /// is scatter-added into G_u in increasing row order (the
    /// `gather_rows` rule), then `db = Σ G_u` and `dW = X_uᵀ·G_u` over the
    /// u distinct rows (the `linear_affine` rules). Like the gather leaf,
    /// `src` gets no gradient.
    pub fn gather_linear_affine(&mut self, src: &Matrix, indices: &[usize], w: Var, b: Var) -> Var {
        let (k, n) = self.shape(w);
        assert_eq!(
            src.cols(),
            k,
            "gather_linear_affine: source width != w rows"
        );
        let mut inv = self.proj.free_inv.pop().unwrap_or_default();
        let rows = {
            let _span = benchtemp_obs::span("gather");
            self.proj.dedup(src.rows(), indices, &mut inv);
            let mut rows = self.alloc_raw(self.proj.uniq.len(), k);
            let runs = src.gather_rows_into(&self.proj.uniq, &mut rows);
            benchtemp_obs::counters::GATHER_COALESCED_RUNS.add(runs);
            rows
        };
        let u = rows.rows();
        let mut projected = self.alloc_raw(u, n);
        {
            let (wm, bm) = (&self.nodes[w.0].value, &self.nodes[b.0].value);
            assert_eq!(bm.shape(), (1, n), "gather_linear_affine: b must be 1×n");
            rows.matmul_into(wm, &mut projected);
            let brow = bm.row(0);
            crate::matrix::fill_rows_par(&mut projected, u * n, |_r, row| {
                bias_act_epilogue(row, brow, Activation::None);
            });
        }
        let mut out = self.alloc_raw(indices.len(), n);
        {
            let _span = benchtemp_obs::span("gather");
            projected.gather_rows_into(&inv, &mut out);
        }
        self.pool.put(projected.into_vec());
        benchtemp_obs::counters::PROJ_ROWS_REQUESTED.add(indices.len() as u64);
        benchtemp_obs::counters::PROJ_ROWS_PROJECTED.add(u as u64);
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(
            out,
            Op::GatherLinearAffine {
                rows,
                inv,
                w: w.0,
                b: b.0,
            },
        )
    }

    /// Fused time encoding `cos(dt·ω + φ)` over a Δt slice: the outer
    /// product (n×1 · 1×d), bias broadcast, and cosine collapse into one
    /// node, replacing the four-node chain `leaf(column)` → `matmul` →
    /// `add_row_broadcast` → `cos`. Per element the fused pass computes
    /// `cos((0 + dt·ω_j) + φ_j)` — exactly the k=1 matmul accumulation
    /// followed by the broadcast add and `cos`, so the result is
    /// bit-identical to the unfused chain.
    ///
    /// Temporal batches repeat Δt values heavily, so rows are memoized by
    /// Δt bit pattern within the call: a repeated Δt copies the
    /// already-computed row, which is trivially bit-identical because the
    /// row is a function of `(dt, ω, φ)` alone.
    pub fn time_encode_fused(&mut self, dts: &[f32], omega: Var, phase: Var) -> Var {
        let n = dts.len();
        let d = self.shape(omega).1;
        let mut out = self.alloc_raw(n, d);
        let mut col = self.alloc_raw(n, 1);
        col.as_mut_slice().copy_from_slice(dts);
        let mut memo = std::mem::take(&mut self.te_memo);
        memo.clear();
        let mut memo_hits = 0u64;
        {
            let (om, ph) = (&self.nodes[omega.0].value, &self.nodes[phase.0].value);
            assert_eq!(om.rows(), 1, "time_encode_fused: omega must be 1×d");
            assert_eq!(ph.shape(), (1, d), "time_encode_fused: phase must be 1×d");
            let (om_row, ph_row) = (om.row(0), ph.row(0));
            for (r, &dt) in dts.iter().enumerate() {
                match memo.entry(dt.to_bits()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let src = *e.get();
                        memo_hits += 1;
                        out.as_mut_slice()
                            .copy_within(src * d..(src + 1) * d, r * d);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(r);
                        let row = out.row_mut(r);
                        for j in 0..d {
                            // k=1 matmul accumulation (0.0 + dt·ω, which the
                            // kernel's zero-init `+=` produces — not folded
                            // away, since 0.0 + x is not an f32 identity),
                            // then the bias broadcast, then cos.
                            let mut acc = 0.0f32;
                            acc += dt * om_row[j];
                            row[j] = (acc + ph_row[j]).cos();
                        }
                    }
                }
            }
        }
        self.te_memo = memo;
        if memo_hits > 0 {
            benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.add(memo_hits);
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(
            out,
            Op::TimeEncodeFused {
                omega: omega.0,
                phase: phase.0,
                dts: col,
            },
        )
    }

    // ---- losses ------------------------------------------------------------

    /// Mean binary cross-entropy with logits; `logits` is n×1.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(lm.cols(), 1, "bce_with_logits: logits must be n×1");
        assert_eq!(lm.rows(), targets.len(), "bce_with_logits: target count");
        let mut loss = 0.0f64;
        for (r, &y) in targets.iter().enumerate() {
            let x = lm.get(r, 0);
            // log(1+exp(-|x|)) + max(x,0) - x*y, the numerically stable form.
            loss += ((-x.abs()).exp().ln_1p() + x.max(0.0) - x * y) as f64;
        }
        let mut value = self.alloc_raw(1, 1);
        value.set(0, 0, (loss / targets.len().max(1) as f64) as f32);
        self.push(
            value,
            Op::BceWithLogits {
                logits: logits.0,
                targets: targets.to_vec(),
            },
        )
    }

    /// Mean softmax cross-entropy; `logits` is n×C, `labels[i] ∈ 0..C`.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(
            lm.rows(),
            labels.len(),
            "softmax_cross_entropy: label count"
        );
        let mut probs = Matrix::zeros(lm.rows(), lm.cols());
        let mut loss = 0.0f64;
        for (r, &y) in labels.iter().enumerate() {
            assert!(
                y < lm.cols(),
                "softmax_cross_entropy: label {y} out of range"
            );
            softmax_into(lm.row(r), probs.row_mut(r));
            loss += -(probs.get(r, y).max(1e-12).ln()) as f64;
        }
        let mut value = self.alloc_raw(1, 1);
        value.set(0, 0, (loss / labels.len().max(1) as f64) as f32);
        self.push(
            value,
            Op::SoftmaxCrossEntropy {
                logits: logits.0,
                labels: labels.to_vec(),
                probs,
            },
        )
    }

    // ---- backward ------------------------------------------------------------

    /// Reverse-mode differentiation from a scalar (1×1) output, computing
    /// only what the gradients of `wrt` need.
    ///
    /// A node is *live* if it is in `wrt` or any of its parents is live;
    /// parents always have lower indices, so one forward sweep marks them.
    /// The reverse walk visits live nodes only, and each backward rule
    /// computes a parent's delta only when that parent is live — so the
    /// input gradient of a projection over a non-trainable leaf is never
    /// formed. Every child of a live node is live, so each live accumulator
    /// receives the same contributions, in the same descending-index order,
    /// as a walk over the whole tape: the `wrt` gradients are bit-identical
    /// to it. A gradient is dropped once its node has been walked unless
    /// that node is in `wrt`; a `wrt` node the output does not depend on
    /// gets `None`.
    pub fn backward(&mut self, output: Var, wrt: &[Var]) -> Gradients {
        assert_eq!(
            self.nodes[output.0].value.shape(),
            (1, 1),
            "backward: output must be a scalar (1x1) loss"
        );
        let n = self.nodes.len();
        let mut keep = vec![false; n];
        for v in wrt {
            keep[v.0] = true;
        }
        let mut live = keep.clone();
        for i in 0..=output.0 {
            if !live[i] {
                live[i] = self.nodes[i].op.parents().any(|p| live[p]);
            }
        }
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        if live[output.0] {
            grads[output.0] = Some(Matrix::full(1, 1, 1.0));
        }
        let sanitize = crate::sanitize::enabled();
        let mut acc = Accum {
            live: &live,
            grads: &mut grads,
        };
        for i in (0..=output.0).rev() {
            // Only live nodes ever receive a gradient.
            let Some(g) = acc.grads[i].take() else {
                continue;
            };
            // Sanitizer: a NaN/Inf gradient poisons the next optimizer step
            // silently; fail loudly at the node that carries it. Checked as
            // the walk consumes each gradient, since intermediate gradients
            // are not kept to the end.
            if sanitize {
                if let Some(bad) = g.as_slice().iter().find(|x| !x.is_finite()) {
                    panic!(
                        "sanitize[tape]: non-finite gradient {bad} at node {i} \
                         (shape {:?}) during backward",
                        g.shape(),
                    );
                }
            }
            self.accumulate(i, &g, &mut acc);
            if keep[i] {
                acc.grads[i] = Some(g);
            }
        }
        Gradients { grads }
    }

    fn accumulate(&self, i: usize, g: &Matrix, acc: &mut Accum<'_>) {
        let node = &self.nodes[i];
        match &node.op {
            Op::Leaf { .. } => {}
            Op::Add(a, b) => {
                acc.bump(*a, || g.clone());
                acc.bump(*b, || g.clone());
            }
            Op::Sub(a, b) => {
                acc.bump(*a, || g.clone());
                acc.bump(*b, || g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                acc.bump(*a, || g.zip(&self.nodes[*b].value, |gg, bb| gg * bb));
                acc.bump(*b, || g.zip(&self.nodes[*a].value, |gg, aa| gg * aa));
            }
            Op::Neg(a) => acc.bump(*a, || g.map(|x| -x)),
            Op::Scale(a, s) => acc.bump(*a, || g.map(|x| x * s)),
            Op::AddScalar(a) => acc.bump(*a, || g.clone()),
            Op::MatMul(a, b) => {
                acc.bump(*a, || g.matmul_transpose(&self.nodes[*b].value));
                acc.bump(*b, || self.nodes[*a].value.transpose_matmul(g));
            }
            Op::Sigmoid(a) => {
                acc.bump(*a, || g.zip(&node.value, |gg, y| gg * y * (1.0 - y)));
            }
            Op::Tanh(a) => {
                acc.bump(*a, || g.zip(&node.value, |gg, y| gg * (1.0 - y * y)));
            }
            Op::Relu(a) => {
                acc.bump(*a, || {
                    g.zip(
                        &self.nodes[*a].value,
                        |gg, x| if x > 0.0 { gg } else { 0.0 },
                    )
                });
            }
            Op::Cos(a) => {
                acc.bump(*a, || g.zip(&self.nodes[*a].value, |gg, x| -gg * x.sin()));
            }
            Op::SumAll(a) => acc.bump(*a, || {
                let (r, c) = self.nodes[*a].value.shape();
                Matrix::full(r, c, g.scalar())
            }),
            Op::AddRowBroadcast(a, b) => {
                acc.bump(*a, || g.clone());
                acc.bump(*b, || {
                    let mut db = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    db
                });
            }
            Op::MulColBroadcast(a, c) => {
                let cm = &self.nodes[*c].value;
                let am = &self.nodes[*a].value;
                acc.bump(*a, || {
                    let mut da = g.clone();
                    for r in 0..g.rows() {
                        let s = cm.get(r, 0);
                        da.row_mut(r).iter_mut().for_each(|x| *x *= s);
                    }
                    da
                });
                acc.bump(*c, || {
                    let mut dc = Matrix::zeros(cm.rows(), 1);
                    for r in 0..g.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(am.row(r))
                            .map(|(&gg, &aa)| gg * aa)
                            .sum();
                        dc.set(r, 0, dot);
                    }
                    dc
                });
            }
            Op::ConcatCols(a, b) => {
                let ac = self.nodes[*a].value.cols();
                acc.bump(*a, || {
                    let mut da = Matrix::zeros(g.rows(), ac);
                    for r in 0..g.rows() {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                    }
                    da
                });
                acc.bump(*b, || {
                    let mut db = Matrix::zeros(g.rows(), g.cols() - ac);
                    for r in 0..g.rows() {
                        db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    db
                });
            }
            Op::ConcatRows(a, b) => {
                let ar = self.nodes[*a].value.rows();
                let split = ar * g.cols();
                acc.bump(*a, || {
                    Matrix::from_vec(ar, g.cols(), g.as_slice()[..split].to_vec())
                });
                acc.bump(*b, || {
                    Matrix::from_vec(g.rows() - ar, g.cols(), g.as_slice()[split..].to_vec())
                });
            }
            Op::GatherRows(a, indices) => acc.bump(*a, || {
                scatter_add_rows(g, indices, self.nodes[*a].value.rows())
            }),
            Op::SliceCols(a, start, _end) => acc.bump(*a, || {
                let (r, c) = self.nodes[*a].value.shape();
                let mut dx = Matrix::zeros(r, c);
                for rr in 0..r {
                    dx.row_mut(rr)[*start..*start + g.cols()].copy_from_slice(g.row(rr));
                }
                dx
            }),
            Op::SliceRows(a, start, _end) => acc.bump(*a, || {
                let (r, c) = self.nodes[*a].value.shape();
                let mut dx = Matrix::zeros(r, c);
                dx.as_mut_slice()[*start * c..*start * c + g.len()].copy_from_slice(g.as_slice());
                dx
            }),
            Op::GroupedAttention {
                q,
                k,
                v,
                group,
                scale,
                weights,
            } => {
                let qm = &self.nodes[*q].value;
                let km = &self.nodes[*k].value;
                let vm = &self.nodes[*v].value;
                let n = qm.rows();
                let d = qm.cols();
                let mut dq = Matrix::zeros(n, d);
                let mut dk = Matrix::zeros(km.rows(), d);
                let mut dv = Matrix::zeros(vm.rows(), vm.cols());
                let mut da = vec![0.0f32; *group];
                let wts = weights.as_slice();
                #[allow(clippy::needless_range_loop)] // indices mirror the math
                for i in 0..n {
                    let g_row = g.row(i);
                    // dv_{ij} = a_j * g_i;  da_j = g_i · v_{ij}
                    let mut a_dot_da = 0.0f32;
                    for j in 0..*group {
                        let idx = i * group + j;
                        let w = wts[idx];
                        da[j] = g_row
                            .iter()
                            .zip(vm.row(idx))
                            .map(|(&gg, &vv)| gg * vv)
                            .sum();
                        a_dot_da += w * da[j];
                        if w != 0.0 {
                            for (o, &gg) in dv.row_mut(idx).iter_mut().zip(g_row) {
                                *o += w * gg;
                            }
                        }
                    }
                    // ds_j = a_j (da_j - Σ a_l da_l); dq += scale Σ ds_j k_j; dk_j += scale ds_j q
                    for j in 0..*group {
                        let idx = i * group + j;
                        let w = wts[idx];
                        if w == 0.0 {
                            continue;
                        }
                        let ds = w * (da[j] - a_dot_da) * scale;
                        for (o, &kk) in dq.row_mut(i).iter_mut().zip(km.row(idx)) {
                            *o += ds * kk;
                        }
                        for (o, &qq) in dk.row_mut(idx).iter_mut().zip(qm.row(i)) {
                            *o += ds * qq;
                        }
                    }
                }
                acc.bump(*q, || dq);
                acc.bump(*k, || dk);
                acc.bump(*v, || dv);
            }
            Op::MultiHeadGroupedAttention {
                q,
                k,
                v,
                heads,
                group,
                scale,
                weights,
            } => {
                // Per head this is exactly the GroupedAttention backward
                // above, applied to the `[h·hd, (h+1)·hd)` column stripe of
                // every packed row and writing straight into the shared
                // gradient buffers. In the unfused chain each head's
                // contribution is a disjoint column stripe padded with
                // zeros and summed across heads; because `+=` accumulation
                // from a zeroed buffer never yields `-0.0`, adding those
                // zero stripes is an exact no-op, so direct stripe writes
                // are bit-identical (DESIGN.md §12).
                let qm = &self.nodes[*q].value;
                let km = &self.nodes[*k].value;
                let vm = &self.nodes[*v].value;
                let n = qm.rows();
                let model_dim = qm.cols();
                let hd = model_dim / heads;
                let mut dq = Matrix::zeros(n, model_dim);
                let mut dk = Matrix::zeros(km.rows(), model_dim);
                let mut dv = Matrix::zeros(vm.rows(), vm.cols());
                let mut da = vec![0.0f32; *group];
                let wts = weights.as_slice();
                let w_w = heads * group;
                #[allow(clippy::needless_range_loop)] // indices mirror the math
                for i in 0..n {
                    for h in 0..*heads {
                        let g_seg = &g.row(i)[h * hd..(h + 1) * hd];
                        let mut a_dot_da = 0.0f32;
                        for j in 0..*group {
                            let idx = i * group + j;
                            let w = wts[i * w_w + h * group + j];
                            da[j] = g_seg
                                .iter()
                                .zip(&vm.row(idx)[h * hd..(h + 1) * hd])
                                .map(|(&gg, &vv)| gg * vv)
                                .sum();
                            a_dot_da += w * da[j];
                            if w != 0.0 {
                                for (o, &gg) in
                                    dv.row_mut(idx)[h * hd..(h + 1) * hd].iter_mut().zip(g_seg)
                                {
                                    *o += w * gg;
                                }
                            }
                        }
                        for j in 0..*group {
                            let idx = i * group + j;
                            let w = wts[i * w_w + h * group + j];
                            if w == 0.0 {
                                continue;
                            }
                            let ds = w * (da[j] - a_dot_da) * scale;
                            for (o, &kk) in dq.row_mut(i)[h * hd..(h + 1) * hd]
                                .iter_mut()
                                .zip(&km.row(idx)[h * hd..(h + 1) * hd])
                            {
                                *o += ds * kk;
                            }
                            for (o, &qq) in dk.row_mut(idx)[h * hd..(h + 1) * hd]
                                .iter_mut()
                                .zip(&qm.row(i)[h * hd..(h + 1) * hd])
                            {
                                *o += ds * qq;
                            }
                        }
                    }
                }
                acc.bump(*q, || dq);
                acc.bump(*k, || dk);
                acc.bump(*v, || dv);
            }
            Op::LinearAffine { x, w, b, act } => {
                let xm = &self.nodes[*x].value;
                let wm = &self.nodes[*w].value;
                let gp_owned = activation_grad(g, &node.value, *act);
                let gp: &Matrix = gp_owned.as_ref().unwrap_or(g);
                // Bias first: the unfused reverse walk reaches the broadcast
                // node before the matmul node.
                acc.bump(*b, || bias_grad(gp));
                acc.bump(*x, || gp.matmul_transpose(wm));
                acc.bump(*w, || xm.transpose_matmul(gp));
            }
            Op::GatherLinearAffine { rows, inv, w, b } => {
                // The distinct-first chain's backward: the `GatherRows`
                // scatter-add into G_u, then the `LinearAffine` rules over
                // the u distinct rows. The source table is not a tape node,
                // so there is no input gradient.
                let gu = scatter_add_rows(g, inv, rows.rows());
                acc.bump(*b, || bias_grad(&gu));
                acc.bump(*w, || rows.transpose_matmul(&gu));
            }
            Op::TimeEncodeFused { omega, phase, dts } => {
                let om = &self.nodes[*omega].value;
                let ph = &self.nodes[*phase].value;
                let (om_row, ph_row) = (om.row(0), ph.row(0));
                let n = dts.rows();
                let d = om.cols();
                let dt_col = dts.as_slice();
                // gs = -g ⊙ sin(s) with s recomputed in the forward's exact
                // per-element order — the Cos backward rule applied to the
                // never-materialized pre-cos matrix. Row-parallel over
                // disjoint row slabs; one writer per element.
                let mut gs = Matrix::zeros(n, d);
                crate::matrix::fill_rows_par(&mut gs, 4 * n * d, |r, row| {
                    let dt = dt_col[r];
                    for (j, o) in row.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        acc += dt * om_row[j];
                        let s = acc + ph_row[j];
                        *o = -g.get(r, j) * s.sin();
                    }
                });
                // Phase first (broadcast node precedes the matmul node in
                // the unfused reverse walk), then ω through the exact
                // `transpose_matmul` kernel the unfused matmul backward
                // uses. The Δt column is not a tape node, so it has no
                // gradient to compute.
                acc.bump(*phase, || {
                    let mut dph = Matrix::zeros(1, d);
                    for r in 0..n {
                        for (o, &v) in dph.row_mut(0).iter_mut().zip(gs.row(r)) {
                            *o += v;
                        }
                    }
                    dph
                });
                acc.bump(*omega, || dts.transpose_matmul(&gs));
            }
            Op::BceWithLogits { logits, targets } => acc.bump(*logits, || {
                let lm = &self.nodes[*logits].value;
                let inv = g.scalar() / targets.len().max(1) as f32;
                let mut dx = Matrix::zeros(lm.rows(), 1);
                for (r, &y) in targets.iter().enumerate() {
                    dx.set(r, 0, (stable_sigmoid(lm.get(r, 0)) - y) * inv);
                }
                dx
            }),
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                probs,
            } => acc.bump(*logits, || {
                let inv = g.scalar() / labels.len().max(1) as f32;
                let mut dx = probs.clone();
                for (r, &y) in labels.iter().enumerate() {
                    let v = dx.get(r, y) - 1.0;
                    dx.set(r, y, v);
                }
                dx.as_mut_slice().iter_mut().for_each(|x| *x *= inv);
                dx
            }),
        }
    }
}

/// The reverse walk's per-node gradient slots, gated by the liveness mask
/// of [`Tape::backward`].
struct Accum<'a> {
    live: &'a [bool],
    grads: &'a mut [Option<Matrix>],
}

impl Accum<'_> {
    /// Add `delta()` into node `idx`'s gradient. The delta is computed only
    /// when `idx` is live — a gradient nothing in `wrt` reads costs nothing.
    fn bump(&mut self, idx: usize, delta: impl FnOnce() -> Matrix) {
        if !self.live[idx] {
            return;
        }
        let delta = delta();
        match &mut self.grads[idx] {
            Some(acc) => acc.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }
}

/// The `wrt` gradients produced by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`; `None` if `v` was not in `wrt` or
    /// did not influence the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Move the gradient w.r.t. `v` out; `None` under the same conditions
    /// as [`Gradients::get`] (and on a second take).
    pub fn take(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(Option::take)
    }
}

/// `gp = g ⊙ act'(y)` for the fused affine ops, the derivative taken from
/// the *output* exactly as the unfused activation nodes compute it (for
/// ReLU, y > 0 ⟺ pre-activation > 0, so the output test is bitwise equal to
/// the unfused pre-activation test; sigmoid and tanh backward already read
/// the output). `None` for the identity: the incoming gradient passes
/// through untouched, with no scratch copy. Row-parallel over disjoint row
/// slabs — each element is written once, so worker count cannot change
/// bits.
fn activation_grad(g: &Matrix, y: &Matrix, act: Activation) -> Option<Matrix> {
    fn rows(g: &Matrix, y: &Matrix, d: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        let (m, n) = y.shape();
        let mut gp = Matrix::zeros(m, n);
        crate::matrix::fill_rows_par(&mut gp, m * n, |r, row| {
            for ((o, &gg), &yy) in row.iter_mut().zip(g.row(r)).zip(y.row(r)) {
                *o = d(gg, yy);
            }
        });
        gp
    }
    match act {
        Activation::None => None,
        Activation::Relu => Some(rows(g, y, |gg, yy| if yy > 0.0 { gg } else { 0.0 })),
        Activation::Sigmoid => Some(rows(g, y, |gg, yy| gg * yy * (1.0 - yy))),
        Activation::Tanh => Some(rows(g, y, |gg, yy| gg * (1.0 - yy * yy))),
    }
}

/// Backward of a row gather: the `rows`×n sum of `g`'s rows by
/// destination, `out[indices[r]] += g[r]` in increasing `r`.
fn scatter_add_rows(g: &Matrix, indices: &[usize], rows: usize) -> Matrix {
    let mut dx = Matrix::zeros(rows, g.cols());
    for (r, &dst) in indices.iter().enumerate() {
        for (o, &x) in dx.row_mut(dst).iter_mut().zip(g.row(r)) {
            *o += x;
        }
    }
    dx
}

/// Bias gradient of the fused affine ops: the column sums of `gp`, in the
/// row order of the unfused broadcast node's backward.
fn bias_grad(gp: &Matrix) -> Matrix {
    let mut db = Matrix::zeros(1, gp.cols());
    for r in 0..gp.rows() {
        for (o, &v) in db.row_mut(0).iter_mut().zip(gp.row(r)) {
            *o += v;
        }
    }
    db
}

/// Lane-blocked bias+activation epilogue of [`Tape::linear_affine`]:
/// fixed-width accumulator blocks the autovectorizer compiles to SIMD,
/// with a scalar remainder. Per element both paths compute exactly
/// `act(out[j] + bias[j])` — same order, same expression — so blocking
/// cannot change bits.
#[inline]
fn bias_act_epilogue(row: &mut [f32], bias: &[f32], act: Activation) {
    const L: usize = crate::matrix::LANES;
    let blocked = row.len() / L * L;
    let mut j = 0;
    while j < blocked {
        let o: &mut [f32; L] = (&mut row[j..j + L]).try_into().unwrap();
        let b: &[f32; L] = bias[j..j + L].try_into().unwrap();
        for l in 0..L {
            o[l] = act.apply(o[l] + b[l]);
        }
        j += L;
    }
    for (o, &bj) in row[blocked..].iter_mut().zip(&bias[blocked..]) {
        *o = act.apply(*o + bj);
    }
}

#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Forward pass of grouped attention over the query rows, shared by the
/// fused multi-head node and the single-head op (`heads = 1`): per-row
/// blocked-dot scores written into the softmax-weight row segment, in-place
/// softmax, and the value accumulation into the head's output stripe. Above
/// [`crate::matrix::PAR_FLOPS`] of work, contiguous row slabs fan out
/// across the worker pool, each task owning the paired `chunks_mut` slabs
/// of the output and the weights. Each element is written by exactly one kernel call with an
/// FP order independent of where slab boundaries fall, so the thread count
/// cannot change result bits.
#[allow(clippy::too_many_arguments)]
fn run_attention_rows(
    qm: &Matrix,
    km: &Matrix,
    vm: &Matrix,
    heads: usize,
    group: usize,
    dk: usize,
    dv: usize,
    scale: f32,
    mask: &[bool],
    out: &mut Matrix,
    weights: &mut Matrix,
) {
    let _span = benchtemp_obs::span("attention");
    let n = qm.rows();
    if n == 0 {
        return;
    }
    let out_w = heads * dv;
    let w_w = heads * group;
    // Score + accumulate flops per query row ≈ 2·group·heads·(dk + dv).
    let work = 2 * n * group * heads * (dk + dv);
    let p = crate::pool::pool();
    if work < crate::matrix::PAR_FLOPS || p.threads() == 1 || n == 1 {
        attention_rows_kernel(
            qm,
            km,
            vm,
            heads,
            group,
            dk,
            dv,
            scale,
            mask,
            0,
            out.as_mut_slice(),
            weights.as_mut_slice(),
        );
        return;
    }
    let rows_per = n.div_ceil(p.threads()).max(1);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .as_mut_slice()
        .chunks_mut(rows_per * out_w)
        .zip(weights.as_mut_slice().chunks_mut(rows_per * w_w))
        .enumerate()
        .map(|(c, (out_block, w_block))| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                attention_rows_kernel(
                    qm,
                    km,
                    vm,
                    heads,
                    group,
                    dk,
                    dv,
                    scale,
                    mask,
                    c * rows_per,
                    out_block,
                    w_block,
                )
            });
            task
        })
        .collect();
    p.scope_run(tasks);
}

/// One contiguous slab of attention query rows (`first` is the global index
/// of the slab's first row). `out_block` rows must arrive zeroed;
/// `w_block` rows are fully overwritten. Per head the scores go through
/// [`crate::matrix::dot`] — the same blocked-dot primitive as the matmul
/// kernels — then an in-place softmax, then the masked value accumulation,
/// all over strided per-head column views of the packed rows.
#[allow(clippy::too_many_arguments)]
fn attention_rows_kernel(
    qm: &Matrix,
    km: &Matrix,
    vm: &Matrix,
    heads: usize,
    group: usize,
    dk: usize,
    dv: usize,
    scale: f32,
    mask: &[bool],
    first: usize,
    out_block: &mut [f32],
    w_block: &mut [f32],
) {
    let out_w = heads * dv;
    let w_w = heads * group;
    for (r, (out_row, w_row)) in out_block
        .chunks_mut(out_w)
        .zip(w_block.chunks_mut(w_w))
        .enumerate()
    {
        let i = first + r;
        let q_row = qm.row(i);
        for h in 0..heads {
            let q_sub = &q_row[h * dk..(h + 1) * dk];
            let w_seg = &mut w_row[h * group..(h + 1) * group];
            #[allow(clippy::needless_range_loop)] // indices mirror the math
            for j in 0..group {
                let idx = i * group + j;
                w_seg[j] = if mask[idx] {
                    crate::matrix::dot(q_sub, &km.row(idx)[h * dk..(h + 1) * dk]) * scale
                } else {
                    f32::NEG_INFINITY
                };
            }
            // All-masked rows come out of the softmax as all-zero weights,
            // leaving the (pre-zeroed) output row untouched — "no valid
            // temporal neighbors" contributes nothing forward or backward.
            softmax_inplace(w_seg);
            let out_seg = &mut out_row[h * dv..(h + 1) * dv];
            for (j, &w) in w_seg.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let v_sub = &vm.row(i * group + j)[h * dv..(h + 1) * dv];
                for (o, &x) in out_seg.iter_mut().zip(v_sub) {
                    *o += w * x;
                }
            }
        }
    }
}

/// Numerically stable softmax of `src` into `dst` (handles -inf masking;
/// all -inf → all zeros).
pub(crate) fn softmax_into(src: &[f32], dst: &mut [f32]) {
    let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        dst.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let mut sum = 0.0;
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        let e = (s - max).exp();
        *d = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    dst.iter_mut().for_each(|x| *x *= inv);
}

/// In-place [`softmax_into`]: the attention kernel writes scores into the
/// saved-weights row segment and softmaxes them where they sit, eliminating
/// the per-call scores scratch. Element-for-element the same floating-point
/// operation sequence as `softmax_into` (max fold, -inf short-circuit,
/// exp/accumulate, reciprocal scale), so routing through either is
/// bit-identical.
pub(crate) fn softmax_inplace(buf: &mut [f32]) {
    let max = buf.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        buf.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let mut sum = 0.0;
    for d in buf.iter_mut() {
        let e = (*d - max).exp();
        *d = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    buf.iter_mut().for_each(|x| *x *= inv);
}

#[cfg(test)]
mod sanitize_tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::MutexGuard;

    /// `set_forced` is process-global; serialize the tests that flip it so
    /// a concurrent restore can't disarm another test's check window.
    fn forced_on() -> MutexGuard<'static, ()> {
        let guard = crate::sanitize::forced_test_lock();
        crate::sanitize::set_forced(Some(true));
        guard
    }

    #[test]
    fn leak_check_catches_granted_but_unrecorded_matrix() {
        let _serial = forced_on();
        let mut t = Tape::new();
        let a = t.leaf(Matrix::full(2, 2, 1.0));
        let _ = t.add(a, a);
        t.reset(); // balanced: every buffer back
        let _dropped = t.alloc_raw(2, 2); // granted, never pushed
        let r = catch_unwind(AssertUnwindSafe(|| t.reset()));
        crate::sanitize::set_forced(None);
        assert!(r.is_err(), "leaked tape buffer must fail the reset check");
    }

    #[test]
    fn backward_rejects_non_finite_gradients() {
        let _serial = forced_on();
        let mut t = Tape::new();
        // Two ×1e30 scales: the input's gradient is 1e30·1e30 = Inf.
        let x = t.leaf(Matrix::full(1, 1, 1e30));
        let a = t.scale(x, 1e30);
        let y = t.scale(a, 1e30);
        let loss = t.sum_all(y);
        let r = catch_unwind(AssertUnwindSafe(|| t.backward(loss, &[x])));
        crate::sanitize::set_forced(None);
        assert!(r.is_err(), "Inf gradient must trip the sanitizer");
    }

    #[test]
    fn backward_rejects_non_finite_intermediate_gradient() {
        let _serial = forced_on();
        let mut t = Tape::new();
        // w ≤ 0, so relu blocks the gradient and w's own gradient is a
        // finite 0 — but the intermediate relu node on the path to w gets
        // g·(1e30·1e30) = Inf. That node's gradient is dropped once walked,
        // so only the check at consumption can see it.
        let w = t.leaf(Matrix::full(1, 1, -1.0));
        let r = t.relu(w);
        let c = t.leaf(Matrix::full(1, 1, 1e30));
        let e = t.scale(c, 1e30);
        let y = t.mul(r, e);
        let loss = t.sum_all(y);
        let res = catch_unwind(AssertUnwindSafe(|| t.backward(loss, &[w])));
        crate::sanitize::set_forced(None);
        assert!(
            res.is_err(),
            "Inf on an intermediate node must trip the sanitizer"
        );
    }

    #[test]
    fn backward_accepts_finite_gradients_under_sanitize() {
        let _serial = forced_on();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 2, 0.5));
        let y = t.tanh(x);
        let loss = t.sum_all(y);
        let grads = t.backward(loss, &[x]);
        assert!(grads.get(x).is_some());
        t.reset();
        crate::sanitize::set_forced(None);
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    /// Caller-owned leaves are dropped at reset and every distinct-row
    /// count the gathered projection meets is served by a warm size class,
    /// so once graph 2 is done the pool's free bytes never move again.
    #[test]
    fn free_bytes_settle_after_two_graphs() {
        let mut t = Tape::new();
        let table = Matrix::from_vec(40, 8, (0..320).map(|i| i as f32 * 0.01).collect());
        let mut after_two = 0;
        for graph in 0..50 {
            let w = t.leaf(Matrix::full(8, 16, 0.5));
            let b = t.leaf(Matrix::full(1, 16, 0.1));
            let distinct = if graph == 0 { 12 } else { 1 + graph * 7 % 12 };
            let idx: Vec<usize> = (0..24).map(|i| i % distinct * 3).collect();
            let y = t.gather_linear_affine(&table, &idx, w, b);
            let _ = t.sum_all(y);
            t.reset();
            if graph == 1 {
                after_two = t.pool_free_bytes();
            }
            if graph >= 1 {
                assert_eq!(t.pool_free_bytes(), after_two, "graph {graph}");
            }
        }
        assert!(after_two > 0);
    }
}
