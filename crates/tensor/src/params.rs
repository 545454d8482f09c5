//! Parameter storage and the forward-pass [`Graph`] context.
//!
//! Parameters live in a [`ParamStore`] across training steps. Each step
//! builds a fresh [`Graph`] (a [`Tape`] plus lazy parameter bindings), runs
//! the forward pass, calls [`Graph::backward`], and hands the harvested
//! `(ParamId, gradient)` pairs to an optimizer.

use std::ops::{Deref, DerefMut};

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Stable handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Positional index inside the owning store (stable; useful for
    /// snapshot indexing and reporting).
    pub fn index(&self) -> usize {
        self.0
    }
}

pub(crate) struct Param {
    pub name: String,
    pub value: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

/// Owns every trainable parameter of a model.
#[derive(Default)]
pub struct ParamStore {
    pub(crate) params: Vec<Param>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the name is for debugging/reporting only.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            value,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Heap bytes held by parameter values + optimizer state.
    pub fn heap_bytes(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.heap_bytes() + p.m.heap_bytes() + p.v.heap_bytes())
            .sum()
    }

    /// Snapshot all parameter values (used by EarlyStopMonitor best-restore).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restore from a snapshot taken earlier.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "restore: snapshot size mismatch"
        );
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(
                p.value.shape(),
                s.shape(),
                "restore: shape mismatch for {}",
                p.name
            );
            p.value = s.clone();
        }
    }
}

thread_local! {
    /// Recycled tapes: a dropped [`Graph`] parks its tape (reset, with node
    /// capacity and its buffer pool intact) plus its binding scratch
    /// here, and the next `Graph::new` on this thread picks both up.
    /// Per-batch graph construction in the training loops therefore stops
    /// churning the allocator without any call-site changes.
    static TAPE_CACHE: std::cell::RefCell<Vec<(Tape, Vec<Option<Var>>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Epoch-boundary hook: sample the `tape.pool_resident_bytes` gauge with
/// the free-list bytes of every tape parked on this thread's recycle cache.
/// It trims nothing: a tape's size-classed pool never holds more buffers
/// per class than one graph holds at once, so it needs no trim. Tapes
/// parked on *other* threads (pool workers running parallel eval) are not
/// sampled; the training-loop tape, the largest, lives on the caller's
/// thread. The name is kept for the e2ebench harness, which times this call
/// at each epoch boundary.
pub fn trim_tape_caches() {
    TAPE_CACHE.with(|c| {
        for (tape, _) in c.borrow().iter() {
            benchtemp_obs::counters::TAPE_POOL_RESIDENT_BYTES.sample(tape.pool_free_bytes());
        }
    });
}

/// Owns a recycled tape (+ binding scratch) and parks both back in
/// [`TAPE_CACHE`] on drop.
///
/// The recycling `Drop` lives on this lifetime-free wrapper — not on
/// [`Graph`] itself — so the borrow checker still ends a graph's `&ParamStore`
/// borrow at its last use (dropping a `&T` field needs no liveness), and
/// call sites can keep mutating the store while a finished graph is in scope.
struct PooledTape {
    tape: Tape,
    bound: Vec<Option<Var>>,
}

impl Drop for PooledTape {
    fn drop(&mut self) {
        let mut tape = std::mem::take(&mut self.tape);
        tape.reset();
        let mut bound = std::mem::take(&mut self.bound);
        bound.clear();
        TAPE_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            // A handful of tapes covers nested graphs; don't hoard beyond that.
            if cache.len() < 4 {
                cache.push((tape, bound));
            }
        });
    }
}

/// Forward-pass context: a tape plus memoized parameter bindings.
pub struct Graph<'s> {
    tape: PooledTape,
    store: &'s ParamStore,
}

impl<'s> Graph<'s> {
    pub fn new(store: &'s ParamStore) -> Self {
        let (tape, mut bound) = TAPE_CACHE
            .with(|c| c.borrow_mut().pop())
            .unwrap_or_default();
        debug_assert!(tape.is_empty(), "recycled tape must be reset");
        debug_assert!(bound.is_empty(), "recycled binding scratch must be clear");
        bound.resize(store.len(), None);
        Graph {
            tape: PooledTape { tape, bound },
            store,
        }
    }

    /// Bind a parameter onto the tape (once per graph; later calls return
    /// the same [`Var`] so gradients accumulate correctly). The leaf copy
    /// lands in pooled storage, so steady-state batches re-bind without
    /// allocating.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.tape.bound[id.0] {
            return v;
        }
        let v = self.tape.tape.leaf_copied(self.store.value(id));
        self.tape.bound[id.0] = Some(v);
        v
    }

    /// Insert a non-trainable input.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.tape.tape.leaf(value)
    }

    /// Insert a non-trainable input by copy into pooled storage — the
    /// allocation-free twin of [`Graph::input`] for callers that keep the
    /// source matrix around.
    pub fn input_from(&mut self, value: &Matrix) -> Var {
        self.tape.tape.leaf_copied(value)
    }

    /// Backward pass from a scalar loss; returns gradients for every bound
    /// parameter (zero matrices for parameters the loss never touched).
    /// The bound parameters are the tape's `wrt` set, so no gradient the
    /// optimizer does not read is computed, and each parameter gradient is
    /// moved out rather than copied.
    pub fn backward(&mut self, loss: Var) -> Vec<(ParamId, Matrix)> {
        let PooledTape { tape, bound } = &mut self.tape;
        let wrt: Vec<Var> = bound.iter().flatten().copied().collect();
        let mut grads = tape.backward(loss, &wrt);
        let mut out = Vec::with_capacity(wrt.len());
        for (i, slot) in bound.iter().enumerate() {
            if let Some(var) = *slot {
                let grad = grads.take(var).unwrap_or_else(|| {
                    let (r, c) = tape.shape(var);
                    Matrix::zeros(r, c)
                });
                out.push((ParamId(i), grad));
            }
        }
        out
    }
}

impl Deref for Graph<'_> {
    type Target = Tape;
    fn deref(&self) -> &Tape {
        &self.tape.tape
    }
}

impl DerefMut for Graph<'_> {
    fn deref_mut(&mut self) -> &mut Tape {
        &mut self.tape.tape
    }
}
