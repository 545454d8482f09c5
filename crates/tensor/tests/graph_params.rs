//! Tests for the Graph/ParamStore layer: parameter binding memoization,
//! gradient harvesting, snapshot/restore, and optimizer integration.

use benchtemp_tensor::init::{self, rng};
use benchtemp_tensor::nn::Linear;
use benchtemp_tensor::{Adam, Graph, Matrix, ParamStore};

#[test]
fn param_binding_is_memoized_and_gradients_accumulate() {
    let mut store = ParamStore::new();
    let w = store.add("w", Matrix::full(1, 1, 2.0));
    let mut g = Graph::new(&store);
    let w1 = g.param(w);
    let w2 = g.param(w);
    assert_eq!(w1, w2, "same ParamId must bind to the same Var");
    // loss = w * w → dL/dw = 2w = 4 (both uses accumulate through one leaf).
    let prod = g.mul(w1, w2);
    let loss = g.sum_all(prod);
    let grads = g.backward(loss);
    assert_eq!(grads.len(), 1);
    let (id, grad) = &grads[0];
    assert_eq!(*id, w);
    assert!((grad.scalar() - 4.0).abs() < 1e-6);
}

#[test]
fn bound_but_unused_param_gets_zero_gradient() {
    let mut store = ParamStore::new();
    let used = store.add("used", Matrix::full(1, 1, 1.0));
    let unused = store.add("unused", Matrix::full(2, 2, 1.0));
    let mut g = Graph::new(&store);
    let u = g.param(used);
    let _nu = g.param(unused); // bound, never touched by the loss
    let loss = g.sum_all(u);
    let grads = g.backward(loss);
    let zero = grads.iter().find(|(id, _)| *id == unused).unwrap();
    assert_eq!(zero.1, Matrix::zeros(2, 2));
}

#[test]
fn unbound_param_is_absent_from_gradients() {
    let mut store = ParamStore::new();
    let a = store.add("a", Matrix::full(1, 1, 1.0));
    let b = store.add("b", Matrix::full(1, 1, 1.0));
    let mut g = Graph::new(&store);
    let av = g.param(a);
    let loss = g.sum_all(av);
    let grads = g.backward(loss);
    assert!(grads.iter().all(|(id, _)| *id != b));
}

#[test]
fn snapshot_restore_round_trips_through_training() {
    let mut store = ParamStore::new();
    let mut r = rng(5);
    let lin = Linear::new(&mut store, &mut r, "lin", 4, 2);
    let before = store.snapshot();
    let mut adam = Adam::new(0.1);
    // A few noisy updates.
    for step in 0..5 {
        let mut g = Graph::new(&store);
        let x = g.input(init::randn(3, 4, 1.0, &mut rng(step)));
        let y = lin.forward(&mut g, x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        adam.step(&mut store, &grads);
    }
    assert_ne!(store.value(lin.w), &before[lin.w.index()]);
    store.restore(&before);
    assert_eq!(store.value(lin.w), &before[lin.w.index()]);
}

#[test]
fn heap_accounting_counts_values_and_moments() {
    let mut store = ParamStore::new();
    store.add("m", Matrix::zeros(10, 10));
    // value + Adam m + Adam v = 3 × 100 × 4 bytes
    assert_eq!(store.heap_bytes(), 3 * 100 * 4);
    assert_eq!(store.num_scalars(), 100);
}

#[test]
#[should_panic(expected = "snapshot size mismatch")]
fn restore_rejects_wrong_snapshot() {
    let mut store = ParamStore::new();
    store.add("a", Matrix::zeros(2, 2));
    store.restore(&[]);
}
