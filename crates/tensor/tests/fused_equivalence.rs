//! Bit-for-bit equivalence of the fused tape ops against the primitive
//! chains they replace.
//!
//! Every fused op computes each output element with the same
//! floating-point operation order as its primitive composition, so forward
//! values *and* gradients must match exactly (`f32::to_bits`), not just
//! approximately. Each test builds that primitive chain explicitly as its
//! reference oracle and pins the contract across a grid of shapes (1×1,
//! ragged, large), every activation, every attention mask pattern, the
//! Δt-memoization fast path, and the distinct-row dedup of the gathered
//! projection, whose reference is the distinct-first chain (gather the
//! distinct rows, project them, gather the projections).

use benchtemp_tensor::nn::Mlp;
use benchtemp_tensor::tape::Activation;
use benchtemp_tensor::{init, Graph, Matrix, ParamStore, Tape, Var};
use benchtemp_util::child::{self, Fnv1a};

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = init::rng(seed);
    init::uniform(rows, cols, -1.5, 1.5, &mut rng)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

const ACTS: [Activation; 4] = [
    Activation::None,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// Binds `leaves` on a fresh tape, builds the output with `build`, and runs
/// `sum_all` → backward. Returns the output followed by each leaf's
/// gradient, as bits.
fn run(leaves: Vec<Matrix>, build: impl FnOnce(&mut Tape, &[Var]) -> Var) -> Vec<Vec<u32>> {
    let mut t = Tape::new();
    let vars: Vec<Var> = leaves.into_iter().map(|m| t.leaf(m)).collect();
    let y = build(&mut t, &vars);
    let loss = t.sum_all(y);
    let grads = t.backward(loss, &vars);
    let mut out = vec![bits(t.value(y))];
    out.extend(
        vars.iter()
            .map(|&v| bits(grads.get(v).expect("leaf gradient"))),
    );
    out
}

/// Reference chain for [`Tape::linear_affine`]: `matmul` →
/// `add_row_broadcast` → activation.
fn affine_chain(t: &mut Tape, x: Var, w: Var, b: Var, act: Activation) -> Var {
    let xw = t.matmul(x, w);
    let z = t.add_row_broadcast(xw, b);
    match act {
        Activation::None => z,
        Activation::Relu => t.relu(z),
        Activation::Sigmoid => t.sigmoid(z),
        Activation::Tanh => t.tanh(z),
    }
}

#[test]
fn linear_affine_matches_unfused_bitwise() {
    // (batch m, in k, out n): degenerate, ragged, and large-enough-to-tile.
    let shapes = [(1, 1, 1), (3, 5, 7), (8, 9, 2), (17, 4, 13), (33, 16, 8)];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        for (j, &act) in ACTS.iter().enumerate() {
            let seed = 100 + (i * ACTS.len() + j) as u64 * 3;
            let leaves = || vec![mat(m, k, seed), mat(k, n, seed + 1), mat(1, n, seed + 2)];
            let chain = run(leaves(), |t, v| affine_chain(t, v[0], v[1], v[2], act));
            let fused = run(leaves(), |t, v| t.linear_affine(v[0], v[1], v[2], act));
            assert_eq!(
                chain, fused,
                "linear_affine bits diverged at shape ({m},{k},{n}), act {act:?}"
            );
        }
    }
}

/// How [`run_gathered`] builds `table[idx]·w + b`.
#[derive(Clone, Copy, Debug)]
enum Gathered {
    /// [`Tape::gather_linear_affine`].
    Fused,
    /// The fused op's contract: `gather_rows_from(table, uniq)` →
    /// `linear_affine` → `gather_rows(·, inv)`, with `uniq` the distinct
    /// indices in first-seen order and `inv[r]` slot `r`'s position in it.
    DistinctFirst,
    /// `gather_rows_from(table, idx)` → `linear_affine`: same forward bits,
    /// but `dW` sums over every gathered slot instead of the distinct rows.
    GatherFirst,
}

/// `uniq` and `inv` of `idx` in first-seen order.
fn first_seen(idx: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut uniq = Vec::new();
    let inv = idx
        .iter()
        .map(|&i| {
            uniq.iter().position(|&u| u == i).unwrap_or_else(|| {
                uniq.push(i);
                uniq.len() - 1
            })
        })
        .collect();
    (uniq, inv)
}

/// `(table[idx]·w + b) ⊙ c` with `(w, b, c)` seeded by `seed`, the
/// projection built as `how` says. The constant weights `c` give every
/// slot its own upstream gradient, so repeated rows sum distinct values
/// and the summation order shows in the bits. Returns (y, dw, db) as bits,
/// `y` before the weighting; the table gets no gradient.
fn run_gathered(
    how: Gathered,
    table: &Matrix,
    idx: &[usize],
    n: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    let k = table.cols();
    let c = mat(idx.len(), n, seed + 2);
    let mut y_bits = Vec::new();
    let mut out = run(vec![mat(k, n, seed), mat(1, n, seed + 1)], |t, v| {
        let (w, b) = (v[0], v[1]);
        let y = match how {
            Gathered::Fused => t.gather_linear_affine(table, idx, w, b),
            Gathered::DistinctFirst => {
                let (uniq, inv) = first_seen(idx);
                let x = t.gather_rows_from(table, &uniq);
                let p = t.linear_affine(x, w, b, Activation::None);
                t.gather_rows(p, &inv)
            }
            Gathered::GatherFirst => {
                let x = t.gather_rows_from(table, idx);
                t.linear_affine(x, w, b, Activation::None)
            }
        };
        y_bits = bits(t.value(y));
        let c = t.leaf(c);
        t.mul(y, c)
    });
    out[0] = y_bits;
    out
}

/// The fused op against both references: forward bits equal the
/// gather-first pair and the distinct-first chain, gradients equal the
/// distinct-first chain. Returns the fused bits.
fn assert_gathered_contract(
    table: &Matrix,
    idx: &[usize],
    n: usize,
    seed: u64,
    what: &str,
) -> Vec<Vec<u32>> {
    let fused = run_gathered(Gathered::Fused, table, idx, n, seed);
    let chain = run_gathered(Gathered::DistinctFirst, table, idx, n, seed);
    let pair = run_gathered(Gathered::GatherFirst, table, idx, n, seed);
    assert_eq!(fused[0], pair[0], "{what}: forward != gather-first pair");
    assert_eq!(fused, chain, "{what}: != distinct-first chain");
    fused
}

#[test]
fn gather_linear_affine_matches_distinct_first_chain_bitwise() {
    let table = mat(40, 9, 61);
    let all_distinct: Vec<usize> = (0..40).map(|i| (i * 7) % 40).collect();
    // A frontier-shaped list: few distinct rows, long repeats, padding 0s.
    let heavy_repeats: Vec<usize> = (0..64)
        .map(|i| [3, 3, 0, 17, 3, 0, 39, 17][i % 8])
        .collect();
    let cases: [(&str, Vec<usize>); 4] = [
        ("all distinct", all_distinct),
        ("heavy repeats", heavy_repeats),
        ("single row", vec![12]),
        ("empty", Vec::new()),
    ];
    for (i, (name, idx)) in cases.iter().enumerate() {
        assert_gathered_contract(&table, idx, 11, 700 + i as u64 * 20, name);
    }
}

/// One tape serving several gathered projections, across a reset: the
/// dedup scratch (stamps, distinct list, recycled row buffers) carries no
/// state from one call into the next.
#[test]
fn gather_linear_affine_reuses_tape_scratch_cleanly() {
    let nodes = mat(30, 6, 67);
    let edges = mat(12, 6, 68);
    let calls: [(&Matrix, Vec<usize>); 3] = [
        (&nodes, vec![29, 4, 4, 0, 29, 17]),
        (&edges, vec![11, 4, 0, 4, 11, 11, 2]),
        (&nodes, vec![4, 5, 6, 7, 29, 29]),
    ];
    let mut t = Tape::new();
    for round in 0..2 {
        let w = t.leaf(mat(6, 5, 69));
        let b = t.leaf(mat(1, 5, 70));
        for (i, (table, idx)) in calls.iter().enumerate() {
            let fused = t.gather_linear_affine(table, idx, w, b);
            let x = t.gather_rows_from(table, idx);
            let pair = t.linear_affine(x, w, b, Activation::None);
            assert_eq!(
                bits(t.value(fused)),
                bits(t.value(pair)),
                "call {i} of round {round}"
            );
        }
        t.reset();
    }
}

/// The TGAT hop-2 shape: 12,000 slots over 300 distinct rows of a
/// 1,575-row, 172-wide edge table, so the projection, the output gather
/// and the `dW` kernel all cross `PAR_FLOPS`. Asserts the fused contract
/// in this process and digests the fused bits; with the tape reset after
/// each run, the sanitize arm also checks that every buffer the tape
/// handed out came back.
fn large_gathered_digest() -> u64 {
    let table = mat(1575, 172, 62);
    let idx: Vec<usize> = (0..12_000).map(|i| (i / 3 * 37) % 300 * 5).collect();
    let fused = assert_gathered_contract(&table, &idx, 32, 800, "large gather_linear_affine");
    let mut h = Fnv1a::new();
    for word in fused.iter().flatten() {
        h.write(&word.to_le_bytes());
    }
    let mut t = Tape::new();
    let w = t.leaf(mat(172, 32, 63));
    let b = t.leaf(mat(1, 32, 64));
    let y = t.gather_linear_affine(&table, &idx, w, b);
    let loss = t.sum_all(y);
    let _ = t.backward(loss, &[w, b]);
    t.reset();
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn gather_linear_affine_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", large_gathered_digest()));
    }
}

/// 1 thread, 4 threads and 4 threads + `BENCHTEMP_SANITIZE=1`: the large
/// fused projection meets its contract in every arm and all arms agree.
#[test]
fn large_gather_linear_affine_bit_identical_across_threads() {
    child::assert_bit_identical(&[
        "gather_linear_affine_child_worker",
        "--exact",
        "--nocapture",
    ]);
}

#[test]
fn gather_linear_affine_counts_requested_and_projected_rows() {
    let requested = &benchtemp_obs::counters::PROJ_ROWS_REQUESTED;
    let projected = &benchtemp_obs::counters::PROJ_ROWS_PROJECTED;
    let (r0, p0) = (requested.get(), projected.get());
    let table = mat(10, 4, 65);
    let idx = [4, 4, 9, 4, 0, 9];
    run_gathered(Gathered::Fused, &table, &idx, 3, 66);
    // Counters are process-wide and tests run in parallel: other tests can
    // only add to both.
    assert!(requested.get() - r0 >= 6);
    assert!(projected.get() - p0 >= 3);
}

/// Time encoding of `dts` over `(ω, φ)` seeded by `seed`, through the fused
/// op or its reference chain `leaf(column)` → `matmul` →
/// `add_row_broadcast` → `cos`. Returns (y, dω, dφ) as bits.
fn run_time_encode(fused: bool, dts: &[f32], d: usize, seed: u64) -> Vec<Vec<u32>> {
    run(vec![mat(1, d, seed), mat(1, d, seed + 1)], |t, v| {
        let (omega, phase) = (v[0], v[1]);
        if fused {
            return t.time_encode_fused(dts, omega, phase);
        }
        let col = t.leaf(Matrix::column(dts));
        let mm = t.matmul(col, omega);
        let z = t.add_row_broadcast(mm, phase);
        t.cos(z)
    })
}

#[test]
fn time_encode_fused_matches_unfused_bitwise() {
    let mut rng = init::rng(7);
    let distinct: Vec<f32> = init::uniform(33, 1, 0.0, 50.0, &mut rng)
        .as_slice()
        .to_vec();
    // Duplicate-heavy batch: every Δt appears twice, so the fused path's
    // memo serves half the rows via row copy.
    let mut duplicated = distinct[..8].to_vec();
    duplicated.extend_from_slice(&distinct[..8]);
    let cases: Vec<(Vec<f32>, usize)> = vec![
        (vec![0.0], 1),
        (distinct[..7].to_vec(), 8),
        (distinct.clone(), 16),
        (duplicated, 8),
        (vec![3.25; 12], 5), // all rows identical: memo serves n-1 of n
    ];
    for (i, (dts, d)) in cases.iter().enumerate() {
        let seed = 500 + i as u64 * 11;
        let chain = run_time_encode(false, dts, *d, seed);
        let fused = run_time_encode(true, dts, *d, seed);
        assert_eq!(
            chain,
            fused,
            "time_encode bits diverged for case {i} (n={}, d={d})",
            dts.len()
        );
    }
}

#[test]
fn time_encode_memo_hits_on_duplicate_dts() {
    let dts = vec![1.5f32; 16];
    let before = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    let fused = run_time_encode(true, &dts, 4, 42);
    let after = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    assert!(
        after - before >= 15,
        "memo should serve 15 of 16 identical rows (got {} hits)",
        after - before
    );
    let chain = run_time_encode(false, &dts, 4, 42);
    assert_eq!(chain, fused, "memoized rows diverged from recomputed rows");

    // Duplicate-heavy mixed batch — the shape a frontier hop actually
    // produces (a few distinct Δt values, each repeated across slots, plus
    // padding zeros). The memo must fire (counter strictly increases) and
    // the memoized rows must still match the recomputed chain bitwise.
    let mixed: Vec<f32> = (0..24)
        .map(|i| [0.0f32, 2.75, 0.0, 9.5, 2.75, 0.0][i % 6])
        .collect();
    let before = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    let fused = run_time_encode(true, &mixed, 6, 43);
    let after = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    assert!(
        after > before,
        "memo must register hits on a duplicate-heavy mixed batch"
    );
    let chain = run_time_encode(false, &mixed, 6, 43);
    assert_eq!(
        chain, fused,
        "memoized rows diverged from recomputed rows on the mixed batch"
    );
}

/// Reference chain for [`Tape::multi_head_grouped_attention`]: per head,
/// `slice_cols` of Q, K and V → `grouped_attention`, then
/// `concat_cols_many` of the head outputs.
fn per_head_chain(
    t: &mut Tape,
    (q, k, v): (Var, Var, Var),
    heads: usize,
    group: usize,
    mask: &[bool],
) -> Var {
    let head_dim = t.shape(q).1 / heads;
    let head_outs: Vec<Var> = (0..heads)
        .map(|h| {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let qh = t.slice_cols(q, lo, hi);
            let kh = t.slice_cols(k, lo, hi);
            let vh = t.slice_cols(v, lo, hi);
            t.grouped_attention(qh, kh, vh, group, mask)
        })
        .collect();
    t.concat_cols_many(&head_outs)
}

/// The fused multi-head node vs the per-head chain, over a grid of head
/// counts, group sizes, and mask patterns — including rows whose every
/// neighbor slot is masked (the all-padded case), which must produce a zero
/// output row with zero gradient flow on both sides.
#[test]
fn multi_head_attention_matches_unfused_bitwise() {
    // (n, heads, group, model_dim)
    let shapes = [
        (1, 1, 1, 4),
        (3, 1, 4, 8),
        (4, 2, 3, 8),
        (5, 4, 6, 16),
        (9, 2, 5, 12),
    ];
    for (i, &(n, heads, group, model_dim)) in shapes.iter().enumerate() {
        let slots = n * group;
        let full = vec![true; slots];
        // Every third slot padded out.
        let partial: Vec<bool> = (0..slots).map(|s| !s.is_multiple_of(3)).collect();
        // Whole rows fully masked (first and last query rows).
        let mut row_masked = vec![true; slots];
        row_masked[..group].fill(false);
        row_masked[slots - group..].fill(false);
        let all_masked = vec![false; slots];
        for (j, mask) in [full, partial, row_masked, all_masked].iter().enumerate() {
            let seed = 900 + (i * 4 + j) as u64 * 7;
            let leaves = || {
                vec![
                    mat(n, model_dim, seed),
                    mat(slots, model_dim, seed + 1),
                    mat(slots, model_dim, seed + 2),
                ]
            };
            let chain = run(leaves(), |t, v| {
                per_head_chain(t, (v[0], v[1], v[2]), heads, group, mask)
            });
            let fused = run(leaves(), |t, v| {
                t.multi_head_grouped_attention(v[0], v[1], v[2], heads, group, mask)
            });
            assert_eq!(
                chain, fused,
                "multi-head attention bits diverged at shape \
                 (n={n}, heads={heads}, group={group}, d={model_dim}), mask case {j}"
            );
        }
    }
}

/// Full model-shaped check: [`Mlp::forward`] through [`Graph`] (param
/// binding, fused `Linear→ReLU→Linear`, BCE loss) must produce bit-identical
/// loss and per-parameter gradients to the same layers written out as
/// primitive chains over the same `ParamStore` parameters.
#[test]
fn mlp_graph_matches_unfused_bitwise() {
    let mut store = ParamStore::new();
    let mut rng = init::rng(9);
    let mlp = Mlp::new(&mut store, &mut rng, "eq", 6, 16, 1);
    let x = mat(10, 6, 77);
    let targets: Vec<f32> = (0..10).map(|i| (i % 2) as f32).collect();
    let run_mlp = |fused: bool| {
        let mut g = Graph::new(&store);
        let xv = g.input_from(&x);
        let logits = if fused {
            mlp.forward(&mut g, xv)
        } else {
            let (w1, b1) = (g.param(mlp.fc1.w), g.param(mlp.fc1.b));
            let h = affine_chain(&mut g, xv, w1, b1, Activation::Relu);
            let (w2, b2) = (g.param(mlp.fc2.w), g.param(mlp.fc2.b));
            affine_chain(&mut g, h, w2, b2, Activation::None)
        };
        let loss = g.bce_with_logits(logits, &targets);
        let loss_bits = bits(g.value(loss));
        let grads = g.backward(loss);
        let grad_bits: Vec<(usize, Vec<u32>)> =
            grads.iter().map(|(id, m)| (id.index(), bits(m))).collect();
        (loss_bits, grad_bits)
    };
    assert_eq!(run_mlp(false), run_mlp(true), "MLP loss/grad bits diverged");
}
