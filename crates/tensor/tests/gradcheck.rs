//! Finite-difference gradient checks for every autograd op.
//!
//! For each op we build `loss = weighted_sum(op(inputs))` with fixed random
//! weights (so every output entry influences the scalar), then compare the
//! tape gradient of each input entry against the central finite difference.

use benchtemp_tensor::init::{self, SeededRng};
use benchtemp_tensor::tape::{Activation, Var};
use benchtemp_tensor::{Matrix, Tape};

/// Builds the scalar loss for a given set of input values.
type Builder = dyn Fn(&mut Tape, &[Matrix]) -> (Vec<Var>, Var);

fn gradcheck(name: &str, inputs: &[Matrix], build: &Builder, tol: f32) {
    // Analytic gradients.
    let mut tape = Tape::new();
    let (vars, loss) = build(&mut tape, inputs);
    let mut grads = tape.backward(loss, &vars);
    let analytic: Vec<Matrix> = vars
        .iter()
        .map(|&v| {
            grads.take(v).unwrap_or_else(|| {
                let (r, c) = tape.shape(v);
                Matrix::zeros(r, c)
            })
        })
        .collect();

    // Finite differences (f64-friendly epsilon for f32 math).
    let eps = 1e-2f32;
    for (which, input) in inputs.iter().enumerate() {
        for idx in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[which].as_mut_slice()[idx] += eps;
            let mut minus = inputs.to_vec();
            minus[which].as_mut_slice()[idx] -= eps;
            let f = |ins: &[Matrix]| {
                let mut t = Tape::new();
                let (_, l) = build(&mut t, ins);
                t.value(l).scalar()
            };
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            let got = analytic[which].as_slice()[idx];
            let denom = numeric.abs().max(got.abs()).max(1.0);
            assert!(
                (numeric - got).abs() / denom <= tol,
                "{name}: input {which} entry {idx}: analytic {got} vs numeric {numeric}"
            );
        }
    }
}

/// Random weights to collapse a matrix output to a scalar.
fn weighted_sum(tape: &mut Tape, v: Var, rng: &mut SeededRng) -> Var {
    let (r, c) = tape.shape(v);
    let w = tape.leaf(init::uniform(r, c, 0.1, 1.0, rng));
    let prod = tape.mul(v, w);
    tape.sum_all(prod)
}

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::uniform(rows, cols, -1.0, 1.0, &mut init::rng(seed))
}

macro_rules! check_unary {
    ($test:ident, $method:ident, $input:expr) => {
        #[test]
        fn $test() {
            let input = $input;
            gradcheck(
                stringify!($method),
                &[input],
                &|t, ins| {
                    let x = t.leaf(ins[0].clone());
                    let y = t.$method(x);
                    let loss = weighted_sum(t, y, &mut init::rng(99));
                    (vec![x], loss)
                },
                2e-2,
            );
        }
    };
}

check_unary!(grad_sigmoid, sigmoid, mat(3, 4, 1));
check_unary!(grad_tanh, tanh, mat(3, 4, 2));
check_unary!(grad_exp, exp, mat(3, 4, 3));
check_unary!(grad_cos, cos, mat(3, 4, 4));
check_unary!(grad_neg, neg, mat(3, 4, 5));
check_unary!(grad_transpose, transpose, mat(3, 4, 6));
check_unary!(grad_sum_all, sum_all, mat(3, 4, 8));
check_unary!(grad_mean_all, mean_all, mat(3, 4, 9));

#[test]
fn grad_relu_away_from_kink() {
    // Shift inputs away from 0 where ReLU is non-differentiable.
    let mut input = mat(3, 4, 13);
    input.as_mut_slice().iter_mut().for_each(|x| {
        if x.abs() < 0.2 {
            *x += 0.5
        }
    });
    gradcheck(
        "relu",
        &[input],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.relu(x);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_ln_positive_inputs() {
    let input = init::uniform(3, 4, 0.5, 2.0, &mut init::rng(14));
    gradcheck(
        "ln",
        &[input],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.ln(x);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

macro_rules! check_binary {
    ($test:ident, $method:ident, $a:expr, $b:expr) => {
        #[test]
        fn $test() {
            gradcheck(
                stringify!($method),
                &[$a, $b],
                &|t, ins| {
                    let a = t.leaf(ins[0].clone());
                    let b = t.leaf(ins[1].clone());
                    let y = t.$method(a, b);
                    let loss = weighted_sum(t, y, &mut init::rng(99));
                    (vec![a, b], loss)
                },
                2e-2,
            );
        }
    };
}

check_binary!(grad_add, add, mat(3, 4, 20), mat(3, 4, 21));
check_binary!(grad_sub, sub, mat(3, 4, 22), mat(3, 4, 23));
check_binary!(grad_mul, mul, mat(3, 4, 24), mat(3, 4, 25));
check_binary!(grad_matmul, matmul, mat(3, 4, 26), mat(4, 2, 27));
check_binary!(grad_concat_cols, concat_cols, mat(3, 2, 28), mat(3, 3, 29));
check_binary!(grad_concat_rows, concat_rows, mat(2, 3, 30), mat(4, 3, 31));
check_binary!(
    grad_add_row_broadcast,
    add_row_broadcast,
    mat(3, 4, 32),
    mat(1, 4, 33)
);
check_binary!(
    grad_mul_col_broadcast,
    mul_col_broadcast,
    mat(3, 4, 34),
    mat(3, 1, 35)
);

#[test]
fn grad_scale_and_add_scalar() {
    gradcheck(
        "scale+add_scalar",
        &[mat(3, 3, 40)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.scale(x, 2.5);
            let z = t.add_scalar(y, -0.3);
            let loss = weighted_sum(t, z, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_gather_rows_with_repeats() {
    gradcheck(
        "gather_rows",
        &[mat(4, 3, 41)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.gather_rows(x, &[0, 2, 2, 3]);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_gather_linear_affine_with_repeats() {
    let table = mat(5, 3, 43);
    gradcheck(
        "gather_linear_affine",
        &[mat(3, 4, 44), mat(1, 4, 45)],
        &move |t, ins| {
            let w = t.leaf(ins[0].clone());
            let b = t.leaf(ins[1].clone());
            let y = t.gather_linear_affine(&table, &[1, 4, 1, 0, 4, 4], w, b, Activation::Tanh);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![w, b], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_slice_cols() {
    gradcheck(
        "slice_cols",
        &[mat(3, 5, 42)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.slice_cols(x, 1, 4);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_bce_with_logits() {
    gradcheck(
        "bce_with_logits",
        &[mat(5, 1, 43)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let loss = t.bce_with_logits(x, &[1.0, 0.0, 1.0, 0.0, 1.0]);
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_softmax_cross_entropy() {
    gradcheck(
        "softmax_cross_entropy",
        &[mat(4, 3, 44)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let loss = t.softmax_cross_entropy(x, &[0, 2, 1, 2]);
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_grouped_attention() {
    // 2 queries, group of 3, one masked slot.
    let q = mat(2, 4, 45);
    let k = mat(6, 4, 46);
    let v = mat(6, 3, 47);
    let mask = vec![true, true, false, true, true, true];
    gradcheck(
        "grouped_attention",
        &[q, k, v],
        &move |t, ins| {
            let q = t.leaf(ins[0].clone());
            let k = t.leaf(ins[1].clone());
            let v = t.leaf(ins[2].clone());
            let y = t.grouped_attention(q, k, v, 3, &mask);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![q, k, v], loss)
        },
        3e-2,
    );
}

#[test]
fn grad_multi_head_grouped_attention() {
    // 3 queries, 2 heads over model dim 8, group of 3, one fully-masked row.
    let q = mat(3, 8, 48);
    let k = mat(9, 8, 49);
    let v = mat(9, 8, 55);
    let mut mask = vec![true; 9];
    mask[2] = false; // padded slot in row 0
    mask[3..6].fill(false); // row 1 entirely padded
    gradcheck(
        "multi_head_grouped_attention",
        &[q, k, v],
        &move |t, ins| {
            let q = t.leaf(ins[0].clone());
            let k = t.leaf(ins[1].clone());
            let v = t.leaf(ins[2].clone());
            let y = t.multi_head_grouped_attention(q, k, v, 2, 3, &mask);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![q, k, v], loss)
        },
        3e-2,
    );
}

#[test]
fn grad_slice_rows() {
    gradcheck(
        "slice_rows",
        &[mat(5, 3, 56)],
        &|t, ins| {
            let x = t.leaf(ins[0].clone());
            let y = t.slice_rows(x, 1, 4);
            let loss = weighted_sum(t, y, &mut init::rng(99));
            (vec![x], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_composite_expression() {
    // A deeper graph mixing many ops: tanh(A·B + bias) ⊙ sigmoid(A).
    let a = mat(3, 3, 50);
    let b = mat(3, 3, 51);
    let bias = mat(1, 3, 52);
    gradcheck(
        "composite",
        &[a, b, bias],
        &|t, ins| {
            let a = t.leaf(ins[0].clone());
            let b = t.leaf(ins[1].clone());
            let bias = t.leaf(ins[2].clone());
            let ab = t.matmul(a, b);
            let pre = t.add_row_broadcast(ab, bias);
            let th = t.tanh(pre);
            let sg = t.sigmoid(a);
            let prod = t.mul(th, sg);
            let loss = weighted_sum(t, prod, &mut init::rng(99));
            (vec![a, b, bias], loss)
        },
        2e-2,
    );
}

#[test]
fn grad_reused_variable_accumulates() {
    // x used twice: loss = sum(x ⊙ x) → grad must be 2x.
    let x = mat(3, 3, 53);
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let prod = tape.mul(xv, xv);
    let loss = tape.sum_all(prod);
    let grads = tape.backward(loss, &[xv]);
    let g = grads.get(xv).unwrap();
    let expected = x.map(|v| 2.0 * v);
    assert!(g.approx_eq(&expected, 1e-5), "grad of x·x should be 2x");
}

#[test]
fn grad_untouched_leaf_is_none() {
    let mut tape = Tape::new();
    let a = tape.leaf(Matrix::full(1, 1, 1.0));
    let b = tape.leaf(Matrix::full(1, 1, 2.0));
    let loss = tape.sum_all(a);
    let grads = tape.backward(loss, &[a, b]);
    assert!(grads.get(b).is_none());
    assert!(grads.get(a).is_some());
}
