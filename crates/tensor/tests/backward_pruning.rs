//! `Tape::backward(output, wrt)` computes only what the `wrt` gradients
//! need, with the same bits as a backward over every leaf.
//!
//! The graph mirrors one tri-batched TGAT step: gathered node/edge feature
//! leaves through `linear_affine` projections (every activation), a
//! `gather_rows` over a non-trainable memory table, fused time encodings,
//! `concat_cols_many`, fused multi-head attention, the `slice_rows` tower
//! split and a BCE loss over a pairwise decoder.

use std::sync::{Mutex, MutexGuard};

use benchtemp_obs::counters::MATMUL_FLOPS;
use benchtemp_tensor::tape::Activation;
use benchtemp_tensor::{init, Matrix, Tape, Var};

/// `MATMUL_FLOPS` is process-wide: serialize this file's tests so a
/// counter delta sees only its own backward pass.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::uniform(rows, cols, -1.0, 1.0, &mut init::rng(seed))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

const BATCH: usize = 6;
const GROUP: usize = 4;
const NODE_DIM: usize = 23;
const EDGE_DIM: usize = 9;
const MEM_DIM: usize = 5;
const TIME_DIM: usize = 8;
const MODEL: usize = 16;
const HEADS: usize = 2;

/// One recorded TGAT-shaped step.
struct Step {
    tape: Tape,
    params: Vec<Var>,
    inputs: Vec<Var>,
    loss: Var,
    /// FLOPs of the `g·Wᵀ` products that only feed input-leaf gradients.
    input_grad_flops: u64,
}

fn build() -> Step {
    let nq = 3 * BATCH;
    let nn = nq * GROUP;
    let node_table = mat(40, NODE_DIM, 1);
    let edge_table = mat(60, EDGE_DIM, 2);
    let q_idx: Vec<usize> = (0..nq).map(|i| (i * 7) % 40).collect();
    let n_idx: Vec<usize> = (0..nn).map(|i| (i * 11 + 3) % 40).collect();
    let e_idx: Vec<usize> = (0..nn).map(|i| (i * 5 + 1) % 60).collect();
    let dts: Vec<f32> = (0..nn).map(|i| (i % 9) as f32 * 0.37).collect();
    let mask: Vec<bool> = (0..nn).map(|i| i % 7 != 3 && i / GROUP != 2).collect();
    let targets: Vec<f32> = (0..2 * BATCH).map(|i| (i < BATCH) as u8 as f32).collect();

    let mut t = Tape::new();
    let p = |t: &mut Tape, r, c, s| t.leaf(mat(r, c, s));
    let (wf, bf) = (p(&mut t, NODE_DIM, MODEL, 10), p(&mut t, 1, MODEL, 11));
    let (we, be) = (p(&mut t, EDGE_DIM, MODEL, 12), p(&mut t, 1, MODEL, 13));
    let (wm, bm) = (p(&mut t, MEM_DIM, MODEL, 14), p(&mut t, 1, MODEL, 15));
    let (omega, phase) = (p(&mut t, 1, TIME_DIM, 16), p(&mut t, 1, TIME_DIM, 17));
    // Width of both attention inputs: [node or memory, feature, time].
    let cat = 2 * MODEL + TIME_DIM;
    let (wq, bq) = (p(&mut t, cat, MODEL, 18), p(&mut t, 1, MODEL, 19));
    let (wk, bk) = (p(&mut t, cat, MODEL, 20), p(&mut t, 1, MODEL, 21));
    let (wv, bv) = (p(&mut t, cat, MODEL, 22), p(&mut t, 1, MODEL, 23));
    let (wo, bo) = (p(&mut t, 2 * MODEL, MODEL, 24), p(&mut t, 1, MODEL, 25));
    let (wd, bd) = (p(&mut t, 2 * MODEL, 1, 26), p(&mut t, 1, 1, 27));
    let params = vec![
        wf, bf, we, be, wm, bm, omega, phase, wq, bq, wk, bk, wv, bv, wo, bo, wd, bd,
    ];

    // Input leaves: pooled gathers of external feature tables, and a
    // memory table bound as a leaf and gathered on the tape.
    let xq = t.gather_rows_from(&node_table, &q_idx);
    let xn = t.gather_rows_from(&node_table, &n_idx);
    let en = t.gather_rows_from(&edge_table, &e_idx);
    let memory = t.leaf(mat(40, MEM_DIM, 3));
    let inputs = vec![xq, xn, en, memory];

    let hq = t.linear_affine(xq, wf, bf, Activation::Relu);
    let mq_rows = t.gather_rows(memory, &q_idx);
    let mq = t.linear_affine(mq_rows, wm, bm, Activation::Sigmoid);
    let teq = t.time_encode_fused(&vec![0.0; nq], omega, phase);
    let q_cat = t.concat_cols_many(&[hq, mq, teq]);
    let q = t.linear_affine(q_cat, wq, bq, Activation::None);

    let hn = t.linear_affine(xn, wf, bf, Activation::Relu);
    let he = t.linear_affine(en, we, be, Activation::Tanh);
    let ten = t.time_encode_fused(&dts, omega, phase);
    let kv_cat = t.concat_cols_many(&[hn, he, ten]);
    let k = t.linear_affine(kv_cat, wk, bk, Activation::None);
    let v = t.linear_affine(kv_cat, wv, bv, Activation::Sigmoid);
    let att = t.multi_head_grouped_attention(q, k, v, HEADS, GROUP, &mask);

    let o_cat = t.concat_cols_many(&[att, hq]);
    let out = t.linear_affine(o_cat, wo, bo, Activation::Relu);
    let src = t.slice_rows(out, 0, BATCH);
    let dst = t.slice_rows(out, BATCH, 2 * BATCH);
    let neg = t.slice_rows(out, 2 * BATCH, 3 * BATCH);
    let pos = t.concat_cols(src, dst);
    let negp = t.concat_cols(src, neg);
    let pairs = t.concat_rows(pos, negp);
    let logits = t.linear_affine(pairs, wd, bd, Activation::None);
    let loss = t.bce_with_logits(logits, &targets);

    // The x-gradients of the projections whose x is an input leaf (the
    // gathered `mq_rows` is not a leaf but only reaches the memory leaf).
    let flops = |m: usize, k: usize, n: usize| 2 * (m * k * n) as u64;
    let input_grad_flops = flops(nq, MODEL, NODE_DIM)
        + flops(nq, MODEL, MEM_DIM)
        + flops(nn, MODEL, NODE_DIM)
        + flops(nn, MODEL, EDGE_DIM);
    Step {
        tape: t,
        params,
        inputs,
        loss,
        input_grad_flops,
    }
}

/// Backward over `wrt`, returning the gradients of `query` (as bits, `None`
/// where absent) and the `MATMUL_FLOPS` the pass spent.
fn run(
    select: impl Fn(&Step) -> Vec<Var>,
    query: impl Fn(&Step) -> Vec<Var>,
) -> (Vec<Option<Vec<u32>>>, u64) {
    let mut step = build();
    let wrt = select(&step);
    let before = MATMUL_FLOPS.get();
    let grads = step.tape.backward(step.loss, &wrt);
    let spent = MATMUL_FLOPS.get() - before;
    let got = query(&step)
        .iter()
        .map(|&v| grads.get(v).map(bits))
        .collect();
    (got, spent)
}

fn all_leaves(s: &Step) -> Vec<Var> {
    s.params.iter().chain(&s.inputs).copied().collect()
}

#[test]
fn params_only_backward_matches_every_leaf_backward_bitwise() {
    let _serial = serial();
    let (pruned, _) = run(|s| s.params.clone(), |s| s.params.clone());
    let (full, _) = run(all_leaves, |s| s.params.clone());
    assert!(
        pruned.iter().all(Option::is_some),
        "every parameter reaches the loss"
    );
    for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
        assert_eq!(p, f, "parameter {i} gradient bits diverged under pruning");
    }
}

#[test]
fn non_wrt_leaves_get_no_gradient() {
    let _serial = serial();
    let (pruned, _) = run(|s| s.params.clone(), |s| s.inputs.clone());
    assert!(
        pruned.iter().all(Option::is_none),
        "input leaves outside wrt"
    );
    // The same leaves do carry a gradient when asked for.
    let (full, _) = run(all_leaves, |s| s.inputs.clone());
    assert!(full.iter().all(Option::is_some), "input leaves inside wrt");
}

#[test]
fn pruning_skips_exactly_the_input_gradient_products() {
    let _serial = serial();
    let (_, pruned) = run(|s| s.params.clone(), |_| Vec::new());
    let (_, full) = run(all_leaves, |_| Vec::new());
    assert_eq!(
        full - pruned,
        build().input_grad_flops,
        "pruned backward must skip the g·Wᵀ products of the input projections and nothing else"
    );
}

#[test]
fn unreachable_output_computes_nothing() {
    let _serial = serial();
    let mut t = Tape::new();
    let a = t.leaf(mat(3, 4, 1));
    let w = t.leaf(mat(4, 2, 2));
    let unused = t.leaf(mat(4, 2, 3));
    let y = t.matmul(a, w);
    let loss = t.sum_all(y);
    let before = MATMUL_FLOPS.get();
    let grads = t.backward(loss, &[unused]);
    assert_eq!(MATMUL_FLOPS.get(), before, "no live node, no matmul");
    assert!(grads.get(unused).is_none() && grads.get(w).is_none());
}
