//! Dense row-major `f32` matrix — the storage type underneath the autograd
//! tape. Kept deliberately small: BenchTemp's models only need 2-D tensors
//! (batches of node embeddings), so everything is a matrix.

use std::fmt;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a flat row-major vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} values cannot fill a {}x{} matrix",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from nested slices (row per slice); useful in tests.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Column vector (n×1) from a slice.
    pub fn column(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row: width mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses a register-blocked microkernel (k tiled in fours, branch-free
    /// inner loop) and partitions output rows across the worker pool above
    /// [`PAR_FLOPS`]. Every output row is produced by the same sequential
    /// kernel regardless of partitioning, so results are bit-identical at
    /// any thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self · rhs` written into a preallocated `out` (shape-checked).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} · {}x{} shapes are incompatible",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into: output is {}x{}, expected {}x{}",
            out.rows,
            out.cols,
            self.rows,
            rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        if n == 0 || m == 0 {
            return;
        }
        benchtemp_obs::counters::MATMUL_FLOPS.add(2 * (m * k * n) as u64);
        run_row_blocks(m, n, m * k * n, &mut out.data, |first, block| {
            matmul_block_kernel(&self.data, k, first, &rhs.data, n, block);
        });
    }

    /// `self · rhsᵀ` — the input gradient `g·Wᵀ` of every matmul backward.
    ///
    /// Transposes `rhs` once (a k×n scratch matrix; backward only, outside
    /// the forward zero-allocation contract), then computes `LANES`
    /// output columns at a time with `matmul_transpose_block_kernel`. Each
    /// entry keeps `dot`'s four-accumulator order exactly, so the bits
    /// match a per-element `dot` loop on every code path. Row-parallel above
    /// [`PAR_FLOPS`].
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose: inner dims {} vs {} differ",
            self.cols, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        benchtemp_obs::counters::MATMUL_FLOPS.add(2 * (m * k * n) as u64);
        let bt = rhs.transpose();
        run_row_blocks(m, n, m * k * n, &mut out.data, |first, block| {
            matmul_transpose_block_kernel(&self.data, k, first, &bt.data, n, block);
        });
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose — the weight
    /// gradient `Xᵀ·g` of every matmul backward.
    ///
    /// k-outer: each worker owns a contiguous slab of output rows (columns
    /// of `self`) and streams the rows of `self` and `rhs` once, a k-quad at
    /// a time, folding each quad into every row of the cache-resident slab
    /// (see `transpose_matmul_block_portable` for the bit-identity argument).
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul: outer dims {} vs {} differ",
            self.rows, rhs.rows
        );
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        benchtemp_obs::counters::MATMUL_FLOPS.add(2 * (m * k * n) as u64);
        run_row_blocks(m, n, m * k * n, &mut out.data, |first, block| {
            transpose_matmul_block_kernel(&self.data, m, first, &rhs.data, n, block);
        });
        out
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into a preallocated `cols×rows` output.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: output is {}x{}, expected {}x{}",
            out.rows,
            out.cols,
            self.cols,
            self.rows
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise map written into a preallocated same-shape `out` —
    /// the allocation-free twin of [`Matrix::map`] used by the tape.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32) {
        assert_eq!(self.shape(), out.shape(), "map_into: shape mismatch");
        for (o, &x) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
    }

    /// Elementwise map applied in place (fused activation).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise combine with another same-shape matrix.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise combine written into a preallocated same-shape `out`.
    pub fn zip_into(&self, rhs: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), rhs.shape(), "zip_into: shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_into: output shape mismatch");
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(rhs.data.iter())
        {
            *o = f(a, b);
        }
    }

    /// `self *= scale` in place.
    pub fn scale_inplace(&mut self, scale: f32) {
        for x in self.data.iter_mut() {
            *x *= scale;
        }
    }

    /// Copy `src`'s contents into `self` (shapes must match).
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// `self += rhs` elementwise.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * rhs` elementwise (axpy).
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Set every entry to zero (reuse the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Extract a single scalar from a 1×1 matrix.
    pub fn scalar(&self) -> f32 {
        assert_eq!(
            self.shape(),
            (1, 1),
            "scalar: matrix is {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Gather the listed rows into a new matrix (repeat indices allowed).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(
                src < self.rows,
                "gather_rows: index {src} out of {} rows",
                self.rows
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Gather the listed rows into a preallocated `indices.len()×cols`
    /// output, coalescing index runs into contiguous block copies — the
    /// SoA fast path under the tape's pooled gather leaf.
    ///
    /// Frontier slot indices arrive with long structured stretches
    /// (ascending CSR neighbors, repeated node-0 padding), so instead of one
    /// `copy_from_slice` per destination row this first resolves the index
    /// list into maximal runs — ascending-consecutive (`idx[i+1] == idx[i]+1`,
    /// one memcpy of `len·cols`) or repeated (`idx[i+1] == idx[i]`, copy once
    /// then replicate) — and issues one block move per run. Above
    /// [`PAR_FLOPS`] copied elements, contiguous run groups fan out across
    /// the worker pool, each group into its own `split_at_mut` slab; every
    /// destination element is written by exactly one plain copy regardless
    /// of the partition, so results are byte-identical to
    /// [`Matrix::gather_rows`] at any thread count.
    ///
    /// Returns the coalesced run count — a pure function of `indices`
    /// (computed by one sequential scan, never of the thread partition), so
    /// counters fed from it are thread-count-invariant.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) -> u64 {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "gather_rows_into: output is {}x{}, expected {}x{}",
            out.rows,
            out.cols,
            indices.len(),
            self.cols
        );
        if let Some(&bad) = indices.iter().find(|&&src| src >= self.rows) {
            panic!("gather_rows_into: index {bad} out of {} rows", self.rows);
        }
        let cols = self.cols;
        let total = indices.len() * cols;
        let p = crate::pool::pool();
        if cols == 0 || total < PAR_FLOPS || p.threads() == 1 {
            // Streaming inline path: resolve and copy one run at a time so
            // the steady state performs no heap allocation at all.
            let mut count = 0u64;
            let mut i = 0;
            while i < indices.len() {
                let run = next_gather_run(indices, i);
                if cols > 0 {
                    gather_runs_kernel(
                        &self.data,
                        cols,
                        std::slice::from_ref(&run),
                        0,
                        &mut out.data,
                    );
                }
                i += run.len;
                count += 1;
            }
            return count;
        }
        let runs = coalesce_gather_runs(indices);
        if runs.len() == 1 {
            gather_runs_kernel(&self.data, cols, &runs, 0, &mut out.data);
            return 1;
        }
        // Group whole runs into contiguous destination slabs of roughly
        // `rows_per` rows each; runs never straddle a slab boundary, so each
        // block copy stays a single contiguous move.
        let rows_per = indices.len().div_ceil(p.threads()).max(1);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        let mut rest: &mut [f32] = &mut out.data;
        let mut run_at = 0;
        let mut base_row = 0;
        while run_at < runs.len() {
            let mut rows_here = 0;
            let mut end = run_at;
            while end < runs.len() && rows_here < rows_per {
                rows_here += runs[end].len;
                end += 1;
            }
            let (block, tail) = rest.split_at_mut(rows_here * cols);
            rest = tail;
            let group = &runs[run_at..end];
            let first = base_row;
            let src = &self.data;
            tasks.push(Box::new(move || {
                gather_runs_kernel(src, cols, group, first, block)
            }));
            base_row += rows_here;
            run_at = end;
        }
        p.scope_run(tasks);
        runs.len() as u64
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "concat_cols: row count mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn concat_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "concat_rows: column count mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Approximate equality for tests.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f32) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Heap bytes held by this matrix (for the efficiency accounting).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Consume the matrix, handing back its backing storage (for buffer
    /// pooling).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Flop threshold above which matmul variants fan rows out across the pool.
/// Below it the per-call dispatch cost exceeds the win; chosen so a typical
/// per-batch model matmul (≤ 64³) stays inline.
pub const PAR_FLOPS: usize = 1 << 18;

/// Fixed lane width of the blocked kernels and epilogues. The
/// accumulator-array loops below are shaped so the autovectorizer lifts
/// them to SIMD without changing the per-element floating-point operation
/// order. Eight `f32` lanes are one 256-bit register in the AVX2 variants
/// that [`avx2_dispatch!`] compiles for the dense matmul kernels; the
/// portable build (SSE2 on x86-64, NEON on aarch64) runs each block as two
/// 128-bit halves.
pub(crate) const LANES: usize = 8;

/// Instruction set the dispatched dense matmul kernels run on in this
/// process: `"avx2"` when the CPU reports AVX2 at run time (x86-64 only),
/// otherwise `"portable"`. Both variants produce the same bits; the stamp
/// only says which one a timing came from.
pub fn kernel_isa() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "portable"
    }
}

/// Run-time AVX2 check; std caches the CPUID probe, so each call is one
/// atomic load.
#[inline]
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Defines kernel `fn $name(args)` over the `#[inline(always)]` portable
/// body `$body`. On x86-64 the body is compiled a second time inside a
/// `#[target_feature(enable = "avx2")]` frame, and `$name` calls that copy
/// when [`avx2_detected`]; other targets build only the portable body.
/// The attribute must sit on a function the whole kernel inlines into:
/// closures and non-`inline(always)` callees keep the caller's baseline
/// codegen. AVX2 rounds every `f32` op exactly as SSE2 does, and Rust never
/// contracts `a * b + c` into an FMA (`fma` stays disabled), so both copies
/// produce the same bits.
macro_rules! avx2_dispatch {
    ($(#[$attr:meta])* fn $name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$attr])*
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[expect(unsafe_code, reason = "AVX2 copy is called only after run-time detection")]
            if avx2_detected() {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY: `avx2_detected()` just confirmed at run time that
                // this CPU executes AVX2, the only feature `avx2` enables.
                return unsafe { avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

/// One [`LANES`]-wide block of the four-way axpy
/// `out[l] += a0·b0[l] + a1·b1[l] + a2·b2[l] + a3·b3[l]` — the k-tiled inner
/// step of every matmul kernel. Per element this is the exact left-associated
/// expression the scalar loop computes, so lane-blocking cannot change result
/// bits.
#[inline(always)]
pub(crate) fn axpy4_lanes(
    out: &mut [f32; LANES],
    a: [f32; 4],
    b0: &[f32; LANES],
    b1: &[f32; LANES],
    b2: &[f32; LANES],
    b3: &[f32; LANES],
) {
    for l in 0..LANES {
        out[l] += a[0] * b0[l] + a[1] * b1[l] + a[2] * b2[l] + a[3] * b3[l];
    }
}

/// One [`LANES`]-wide block of the single axpy `out[l] += a·b[l]` — the
/// `k % 4` tail step. Same bit-equivalence argument as [`axpy4_lanes`].
#[inline(always)]
pub(crate) fn axpy_lanes(out: &mut [f32; LANES], a: f32, b: &[f32; LANES]) {
    for l in 0..LANES {
        out[l] += a * b[l];
    }
}

/// One coalesced copy run of [`Matrix::gather_rows_into`]: `len` destination
/// rows starting at row `dst` read from source row `src` stepping by `step`
/// (1 = ascending-consecutive indices, one contiguous memcpy; 0 = the same
/// index repeated, copy once then replicate).
struct GatherRun {
    dst: usize,
    src: usize,
    len: usize,
    step: usize,
}

/// Resolve an index list into maximal coalesced runs. Greedy left-to-right:
/// at each position take the longest ascending-consecutive stretch, else the
/// longest repeated stretch (lone indices are a length-1 run of either
/// kind). Pure function of `indices` — the run count it yields is the
/// thread-count-invariant value `gather_rows_into` reports.
fn coalesce_gather_runs(indices: &[usize]) -> Vec<GatherRun> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < indices.len() {
        let run = next_gather_run(indices, i);
        i += run.len;
        runs.push(run);
    }
    runs
}

/// The maximal run starting at position `i`: the longest
/// ascending-consecutive stretch if one starts here, else the longest
/// repeated stretch (a lone index is a length-1 run of either kind).
#[inline]
fn next_gather_run(indices: &[usize], i: usize) -> GatherRun {
    let src = indices[i];
    let mut len = 1;
    if indices.get(i + 1) == Some(&(src + 1)) {
        while indices.get(i + len) == Some(&(src + len)) {
            len += 1;
        }
        GatherRun {
            dst: i,
            src,
            len,
            step: 1,
        }
    } else {
        while indices.get(i + len) == Some(&src) {
            len += 1;
        }
        GatherRun {
            dst: i,
            src,
            len,
            step: 0,
        }
    }
}

/// Execute a contiguous group of gather runs into one destination slab
/// (`block` holds the rows starting at global row `base_row`). Each run is
/// either one block memcpy or a copy-then-replicate — plain byte moves, so
/// where slab boundaries fall cannot change the output.
fn gather_runs_kernel(
    src: &[f32],
    cols: usize,
    runs: &[GatherRun],
    base_row: usize,
    block: &mut [f32],
) {
    for run in runs {
        let at = (run.dst - base_row) * cols;
        let seg = &mut block[at..at + run.len * cols];
        if run.step == 1 {
            seg.copy_from_slice(&src[run.src * cols..(run.src + run.len) * cols]);
        } else {
            let (first, rest) = seg.split_at_mut(cols);
            first.copy_from_slice(&src[run.src * cols..(run.src + 1) * cols]);
            for r in rest.chunks_exact_mut(cols) {
                r.copy_from_slice(first);
            }
        }
    }
}

/// Row-parallel fill for the tape's fused kernels: `kernel(i, row)` produces
/// row `i` of `out` (the row keeps its prior contents, so read-modify-write
/// epilogues work), fanned across the pool above [`PAR_FLOPS`] `work` units
/// through the same row-slab partition as the matmul kernels. Each row is
/// written by exactly one kernel call regardless of the partition, so the
/// thread count cannot change result bits.
pub(crate) fn fill_rows_par(
    out: &mut Matrix,
    work: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (m, n) = out.shape();
    if m == 0 || n == 0 {
        return;
    }
    run_row_blocks(m, n, work, &mut out.data, |first, block| {
        for (r, row) in block.chunks_mut(n).enumerate() {
            kernel(first + r, row);
        }
    });
}

/// Run `kernel(first_row, slab)` over contiguous `n`-wide row slabs of
/// `out` — the whole matrix inline, or one slab per pool task when `work`
/// (total flops) crosses [`PAR_FLOPS`] — so the kernel can share work
/// across rows (e.g. one B sweep per row quad). The kernel must keep each
/// row's FP order independent of the slab shape — thread partitioning
/// decides where slabs start, and results must not depend on the thread
/// count.
fn run_row_blocks<F>(m: usize, n: usize, work: usize, out: &mut [f32], kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), m * n);
    let p = crate::pool::pool();
    if work < PAR_FLOPS || p.threads() == 1 || m == 1 {
        kernel(0, out);
        return;
    }
    let rows_per = m.div_ceil(p.threads()).max(1);
    let kernel = &kernel;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per * n)
        .enumerate()
        .map(|(c, block)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || kernel(c * rows_per, block));
            task
        })
        .collect();
    p.scope_run(tasks);
}

/// One output row of `A·B`: k tiled in fours, four B rows streamed per pass
/// over the output row, branch-free (the old kernel skipped `a == 0.0`
/// entries, which costs a branch per k on dense data to save work that
/// almost never exists).
///
/// DETERMINISM: the per-row floating-point operation order here must match
/// [`matmul_quad_kernel`] exactly — which kernel computes a given row
/// depends on where thread-block boundaries fall, and the runtime contract
/// says the thread count can never change result bits.
#[inline(always)]
fn matmul_row_kernel(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    out_row.fill(0.0);
    let k = a_row.len();
    let blocked = n / LANES * LANES;
    let mut kk = 0;
    while kk + 4 <= k {
        let a = [a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]];
        let bs = &b[kk * n..(kk + 4) * n];
        let (b0, b1) = (&bs[..n], &bs[n..2 * n]);
        let (b2, b3) = (&bs[2 * n..3 * n], &bs[3 * n..4 * n]);
        let mut j = 0;
        while j < blocked {
            let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
            axpy4_lanes(
                o,
                a,
                b0[j..j + LANES].try_into().unwrap(),
                b1[j..j + LANES].try_into().unwrap(),
                b2[j..j + LANES].try_into().unwrap(),
                b3[j..j + LANES].try_into().unwrap(),
            );
            j += LANES;
        }
        while j < n {
            out_row[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            j += 1;
        }
        kk += 4;
    }
    while kk < k {
        let a0 = a_row[kk];
        let b0 = &b[kk * n..kk * n + n];
        let mut j = 0;
        while j < blocked {
            let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
            axpy_lanes(o, a0, b0[j..j + LANES].try_into().unwrap());
            j += LANES;
        }
        for (o, &v0) in out_row[j..].iter_mut().zip(&b0[j..]) {
            *o += a0 * v0;
        }
        kk += 1;
    }
}

/// Four output rows of `A·B` per B sweep: the same k-tiled arithmetic as
/// [`matmul_row_kernel`] (identical per-row FP order — see the determinism
/// note there), but each streamed B tile feeds four output rows, quartering
/// the dominant memory traffic on large matmuls.
#[inline(always)]
fn matmul_quad_kernel(a: &[&[f32]; 4], b: &[f32], n: usize, out: [&mut [f32]; 4]) {
    let [o0, o1, o2, o3] = out;
    o0.fill(0.0);
    o1.fill(0.0);
    o2.fill(0.0);
    o3.fill(0.0);
    let k = a[0].len();
    let blocked = n / LANES * LANES;
    let mut kk = 0;
    while kk + 4 <= k {
        let (r0, r1, r2, r3) = (
            [a[0][kk], a[0][kk + 1], a[0][kk + 2], a[0][kk + 3]],
            [a[1][kk], a[1][kk + 1], a[1][kk + 2], a[1][kk + 3]],
            [a[2][kk], a[2][kk + 1], a[2][kk + 2], a[2][kk + 3]],
            [a[3][kk], a[3][kk + 1], a[3][kk + 2], a[3][kk + 3]],
        );
        let bs = &b[kk * n..(kk + 4) * n];
        let (b0, b1) = (&bs[..n], &bs[n..2 * n]);
        let (b2, b3) = (&bs[2 * n..3 * n], &bs[3 * n..4 * n]);
        let mut j = 0;
        while j < blocked {
            let c0: &[f32; LANES] = b0[j..j + LANES].try_into().unwrap();
            let c1: &[f32; LANES] = b1[j..j + LANES].try_into().unwrap();
            let c2: &[f32; LANES] = b2[j..j + LANES].try_into().unwrap();
            let c3: &[f32; LANES] = b3[j..j + LANES].try_into().unwrap();
            axpy4_lanes(
                (&mut o0[j..j + LANES]).try_into().unwrap(),
                r0,
                c0,
                c1,
                c2,
                c3,
            );
            axpy4_lanes(
                (&mut o1[j..j + LANES]).try_into().unwrap(),
                r1,
                c0,
                c1,
                c2,
                c3,
            );
            axpy4_lanes(
                (&mut o2[j..j + LANES]).try_into().unwrap(),
                r2,
                c0,
                c1,
                c2,
                c3,
            );
            axpy4_lanes(
                (&mut o3[j..j + LANES]).try_into().unwrap(),
                r3,
                c0,
                c1,
                c2,
                c3,
            );
            j += LANES;
        }
        while j < n {
            let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
            o0[j] += r0[0] * v0 + r0[1] * v1 + r0[2] * v2 + r0[3] * v3;
            o1[j] += r1[0] * v0 + r1[1] * v1 + r1[2] * v2 + r1[3] * v3;
            o2[j] += r2[0] * v0 + r2[1] * v1 + r2[2] * v2 + r2[3] * v3;
            o3[j] += r3[0] * v0 + r3[1] * v1 + r3[2] * v2 + r3[3] * v3;
            j += 1;
        }
        kk += 4;
    }
    // k % 4 tail, row by row in the same order as `matmul_row_kernel`'s.
    for (o, a_row) in [o0, o1, o2, o3].into_iter().zip(a.iter()) {
        for t in kk..k {
            let a0 = a_row[t];
            let b0 = &b[t * n..t * n + n];
            let mut j = 0;
            while j < blocked {
                let ob: &mut [f32; LANES] = (&mut o[j..j + LANES]).try_into().unwrap();
                axpy_lanes(ob, a0, b0[j..j + LANES].try_into().unwrap());
                j += LANES;
            }
            for (o, &v0) in o[j..].iter_mut().zip(&b0[j..]) {
                *o += a0 * v0;
            }
        }
    }
}

/// One thread's contiguous slab of `A·B` output rows: quads of rows share
/// each B sweep, the `rows % 4` tail falls back to the single-row kernel.
/// Both kernels apply the identical per-row FP order, so where the quad
/// boundaries land (a function of the thread partition) cannot change bits.
#[inline(always)]
fn matmul_block_portable(
    a_data: &[f32],
    k: usize,
    first: usize,
    b: &[f32],
    n: usize,
    block: &mut [f32],
) {
    let mut i = first;
    let mut quads = block.chunks_exact_mut(4 * n);
    for quad in quads.by_ref() {
        let (o0, rest) = quad.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let a_quad = [
            &a_data[i * k..(i + 1) * k],
            &a_data[(i + 1) * k..(i + 2) * k],
            &a_data[(i + 2) * k..(i + 3) * k],
            &a_data[(i + 3) * k..(i + 4) * k],
        ];
        matmul_quad_kernel(&a_quad, b, n, [o0, o1, o2, o3]);
        i += 4;
    }
    for row in quads.into_remainder().chunks_mut(n) {
        matmul_row_kernel(&a_data[i * k..(i + 1) * k], b, n, row);
        i += 1;
    }
}

/// One slab of `Aᵀ·B` output rows, `first..first + block.len() / n`. `A` is
/// k×`a_cols` and `B` is k×n, both row-major; output row `i` reads column
/// `i` of `A`, so the slab's `A` operands for one k are the contiguous
/// segment `A[k][first..]`.
///
/// k-outer: each k-quad loads four `A` segments and four `B` rows once and
/// applies [`axpy4_lanes`] to every output row of the slab, which stays
/// cache-resident across the sweep. Per output element the FP order is
/// `acc += a0·b0 + a1·b1 + a2·b2 + a3·b3` per k-quad in ascending k, then
/// the `k % 4` single-axpy tail — the same order as a per-row kernel that
/// walks one output row through all of k. The order depends on neither the
/// slab's start nor its height, so the thread partition cannot change bits.
#[inline(always)]
fn transpose_matmul_block_portable(
    a: &[f32],
    a_cols: usize,
    first: usize,
    b: &[f32],
    n: usize,
    block: &mut [f32],
) {
    block.fill(0.0);
    let rows = block.len() / n;
    let k = b.len() / n;
    let a_seg = |kk: usize| &a[kk * a_cols + first..kk * a_cols + first + rows];
    let blocked = n / LANES * LANES;
    let mut kk = 0;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (a_seg(kk), a_seg(kk + 1), a_seg(kk + 2), a_seg(kk + 3));
        let bs = &b[kk * n..(kk + 4) * n];
        let (b0, b1) = (&bs[..n], &bs[n..2 * n]);
        let (b2, b3) = (&bs[2 * n..3 * n], &bs[3 * n..4 * n]);
        for (r, out_row) in block.chunks_exact_mut(n).enumerate() {
            let av = [a0[r], a1[r], a2[r], a3[r]];
            let mut j = 0;
            while j < blocked {
                let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
                axpy4_lanes(
                    o,
                    av,
                    b0[j..j + LANES].try_into().unwrap(),
                    b1[j..j + LANES].try_into().unwrap(),
                    b2[j..j + LANES].try_into().unwrap(),
                    b3[j..j + LANES].try_into().unwrap(),
                );
                j += LANES;
            }
            while j < n {
                out_row[j] += av[0] * b0[j] + av[1] * b1[j] + av[2] * b2[j] + av[3] * b3[j];
                j += 1;
            }
        }
        kk += 4;
    }
    while kk < k {
        let a0 = a_seg(kk);
        let b0 = &b[kk * n..(kk + 1) * n];
        for (out_row, &av) in block.chunks_exact_mut(n).zip(a0) {
            let mut j = 0;
            while j < blocked {
                let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
                axpy_lanes(o, av, b0[j..j + LANES].try_into().unwrap());
                j += LANES;
            }
            for (o, &v0) in out_row[j..].iter_mut().zip(&b0[j..]) {
                *o += av * v0;
            }
        }
        kk += 1;
    }
}

/// One slab of `A·Bᵀ` output rows, `first..first + block.len() / n`, with
/// `A` row-major m×k and `bt` the k×n transpose of `B`. Each row is filled
/// [`LANES`] columns at a time by [`dot_lanes`], then the `n % LANES` tail
/// one column at a time by the same function, so every entry is exactly
/// [`dot`]`(A[i], B[j])` and rows are independent of the slab partition.
#[inline(always)]
fn matmul_transpose_block_portable(
    a: &[f32],
    k: usize,
    first: usize,
    bt: &[f32],
    n: usize,
    block: &mut [f32],
) {
    let blocked = n / LANES * LANES;
    for (r, out_row) in block.chunks_exact_mut(n).enumerate() {
        let a_row = &a[(first + r) * k..(first + r + 1) * k];
        let mut j = 0;
        while j < blocked {
            out_row[j..j + LANES].copy_from_slice(&dot_lanes::<LANES>(a_row, bt, n, j));
            j += LANES;
        }
        for (j, o) in out_row.iter_mut().enumerate().skip(blocked) {
            *o = dot_lanes::<1>(a_row, bt, n, j)[0];
        }
    }
}

/// `W` adjacent entries `(A·Bᵀ)[i][j..j + W]` from `A`'s row `i` and the
/// k×n transpose `bt` of `B`. Lane `l` replays [`dot`]`(a_row, B[j + l])`
/// operation for operation: four accumulators over the k-quads, a separate
/// tail over `k % 4`, finished as `(acc0 + acc1) + (acc2 + acc3) + tail`.
/// No arithmetic crosses lanes, so the lane count cannot change a bit.
#[inline(always)]
fn dot_lanes<const W: usize>(a_row: &[f32], bt: &[f32], n: usize, j: usize) -> [f32; W] {
    // Checked once here so the per-k lane slices below need no bounds check.
    assert!(
        j + W <= n,
        "dot_lanes: lanes {j}..{} overrun row width {n}",
        j + W
    );
    let quads = a_row.len() / 4 * 4;
    let (a_quads, a_tail) = a_row.split_at(quads);
    let (b_quads, b_tail) = bt.split_at(quads * n);
    let lanes = |b_row: &[f32]| -> [f32; W] { b_row[j..j + W].try_into().unwrap() };
    let mut acc = [[0.0f32; W]; 4];
    for (a4, b4) in a_quads.chunks_exact(4).zip(b_quads.chunks_exact(4 * n)) {
        for ((acc_q, &av), b_row) in acc.iter_mut().zip(a4).zip(b4.chunks_exact(n)) {
            for (o, &x) in acc_q.iter_mut().zip(&lanes(b_row)) {
                *o += av * x;
            }
        }
    }
    let mut tail = [0.0f32; W];
    for (&av, b_row) in a_tail.iter().zip(b_tail.chunks_exact(n)) {
        for (o, &x) in tail.iter_mut().zip(&lanes(b_row)) {
            *o += av * x;
        }
    }
    std::array::from_fn(|l| (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]) + tail[l])
}

avx2_dispatch! {
    /// [`matmul_block_portable`], AVX2 when the CPU has it.
    fn matmul_block_kernel => matmul_block_portable(
        a_data: &[f32], k: usize, first: usize, b: &[f32], n: usize, block: &mut [f32],
    )
}

avx2_dispatch! {
    /// [`transpose_matmul_block_portable`], AVX2 when the CPU has it.
    fn transpose_matmul_block_kernel => transpose_matmul_block_portable(
        a: &[f32], a_cols: usize, first: usize, b: &[f32], n: usize, block: &mut [f32],
    )
}

avx2_dispatch! {
    /// [`matmul_transpose_block_portable`], AVX2 when the CPU has it.
    fn matmul_transpose_block_kernel => matmul_transpose_block_portable(
        a: &[f32], k: usize, first: usize, bt: &[f32], n: usize, block: &mut [f32],
    )
}

/// Four-accumulator dot product — the attention score kernel, and the
/// per-entry order [`dot_lanes`] replays for `matmul_transpose`.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let quads = a.len() / 4 * 4;
    let (a4, a_rest) = a.split_at(quads);
    let (b4, b_rest) = b.split_at(quads);
    let mut acc = [0.0f32; 4];
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[5.0, 5.0], &[2.0, 3.0]]);
        assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[5.0, 7.0]]));
    }

    #[test]
    fn matmul_transpose_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]]);
        assert!(a
            .matmul_transpose(&b)
            .approx_eq(&a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0], &[8.0], &[9.0]]);
        assert!(a
            .transpose_matmul(&b)
            .approx_eq(&a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(a.matmul(&Matrix::identity(2)).approx_eq(&a, 1e-7));
        assert!(Matrix::identity(2).matmul(&a).approx_eq(&a, 1e-7));
    }

    #[test]
    fn gather_rows_repeats_and_reorders() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(
            g,
            Matrix::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[3.0, 3.0]])
        );
    }

    #[test]
    fn gather_rows_into_matches_per_row_gather_bytewise() {
        let src = pseudo_random(37, 13, 5);
        let patterns: Vec<Vec<usize>> = vec![
            vec![],            // nothing to gather
            vec![4],           // single row
            (0..37).collect(), // identity: one whole-matrix memcpy
            // Frontier shape: ascending real slots then node-0 padding.
            (5..20).chain(std::iter::repeat_n(0, 9)).collect(),
            vec![3; 12],                                // one replicated run
            (0..30).rev().collect(),                    // descending: every row its own run
            vec![1, 2, 3, 3, 3, 7, 8, 0, 0, 36, 36, 1], // mixed runs
        ];
        for idx in &patterns {
            let want = src.gather_rows(idx);
            let mut got = Matrix::full(idx.len(), 13, f32::NAN);
            let runs = src.gather_rows_into(idx, &mut got);
            let want_bits: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
            let got_bits: Vec<u32> = got.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(want_bits, got_bits, "pattern {idx:?}");
            assert!(runs as usize <= idx.len().max(1), "pattern {idx:?}");
        }
    }

    #[test]
    fn gather_run_count_is_a_pure_function_of_indices() {
        let src = pseudo_random(10, 4, 9);
        let mut out = Matrix::zeros(7, 4);
        // [2,3,4] ascending, [6,6] repeated, [1], [9] → exactly 4 runs.
        assert_eq!(src.gather_rows_into(&[2, 3, 4, 6, 6, 1, 9], &mut out), 4);
        let mut whole = Matrix::zeros(10, 4);
        let ids: Vec<usize> = (0..10).collect();
        assert_eq!(src.gather_rows_into(&ids, &mut whole), 1);
    }

    #[test]
    fn gather_rows_into_above_parallel_threshold_matches() {
        // 4352 rows × 64 cols > PAR_FLOPS elements: exercises the run-group
        // slab partition (inline on a 1-thread pool, fanned out otherwise).
        let src = pseudo_random(512, 64, 21);
        let mut idx = Vec::with_capacity(4352);
        for rep in 0..17 {
            idx.extend((rep % 7)..(rep % 7) + 200); // ascending stretches
            idx.extend(std::iter::repeat_n(rep % 512, 56)); // repeated padding
        }
        let want = src.gather_rows(&idx);
        let mut got = Matrix::full(idx.len(), 64, f32::NAN);
        let runs = src.gather_rows_into(&idx, &mut got);
        assert_eq!(runs, 34, "17 × (one ascending + one repeated run)");
        assert!(want == got, "parallel gather diverged from per-row gather");
    }

    #[test]
    #[should_panic(expected = "gather_rows_into")]
    fn gather_rows_into_rejects_out_of_range_index() {
        let src = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(1, 2);
        let _ = src.gather_rows_into(&[3], &mut out);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(
            a.concat_cols(&b),
            Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]])
        );
        assert_eq!(
            a.concat_rows(&b),
            Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]])
        );
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_sum_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert_eq!(Matrix::full(1, 1, 2.5).scalar(), 2.5);
    }

    /// Naive triple loop as ground truth for the blocked kernels.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f64;
                for k in 0..a.cols() {
                    acc += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                out.set(i, j, acc as f32);
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = crate::rng::Pcg32::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_kernels_match_naive_on_awkward_shapes() {
        // Shapes straddle the k-unroll (k % 4 ∈ {0,1,2,3}) and include
        // zeros (the dropped skip-branch must not change results).
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 9, 2), (17, 4, 13), (6, 6, 6)] {
            let mut a = pseudo_random(m, k, 11 + n as u64);
            let b = pseudo_random(k, n, 29 + m as u64);
            a.set(0, 0, 0.0);
            let want = naive_matmul(&a, &b);
            assert!(a.matmul(&b).approx_eq(&want, 1e-4), "matmul {m}x{k}x{n}");
            assert!(
                a.transpose().transpose_matmul(&b).approx_eq(&want, 1e-4),
                "transpose_matmul {m}x{k}x{n}"
            );
            assert!(
                a.matmul_transpose(&b.transpose()).approx_eq(&want, 1e-4),
                "matmul_transpose {m}x{k}x{n}"
            );
        }
    }

    /// The per-row `Aᵀ·B` kernel the k-outer slab kernel replaced, kept as
    /// the bit-exact oracle: output row `i` walks all of k, k-quads first
    /// (four strided `A` loads per quad), then the `k % 4` tail.
    fn transpose_matmul_row_oracle(a: &Matrix, i: usize, b: &Matrix, out_row: &mut [f32]) {
        let (k, a_cols, n) = (a.rows(), a.cols(), b.cols());
        let (a, b) = (a.as_slice(), b.as_slice());
        out_row.fill(0.0);
        let blocked = n / LANES * LANES;
        let mut kk = 0;
        while kk + 4 <= k {
            let av = [
                a[kk * a_cols + i],
                a[(kk + 1) * a_cols + i],
                a[(kk + 2) * a_cols + i],
                a[(kk + 3) * a_cols + i],
            ];
            let b0 = &b[kk * n..kk * n + n];
            let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
            let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
            let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
            let mut j = 0;
            while j < blocked {
                let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
                axpy4_lanes(
                    o,
                    av,
                    b0[j..j + LANES].try_into().unwrap(),
                    b1[j..j + LANES].try_into().unwrap(),
                    b2[j..j + LANES].try_into().unwrap(),
                    b3[j..j + LANES].try_into().unwrap(),
                );
                j += LANES;
            }
            while j < n {
                out_row[j] += av[0] * b0[j] + av[1] * b1[j] + av[2] * b2[j] + av[3] * b3[j];
                j += 1;
            }
            kk += 4;
        }
        while kk < k {
            let a0 = a[kk * a_cols + i];
            let b0 = &b[kk * n..kk * n + n];
            let mut j = 0;
            while j < blocked {
                let o: &mut [f32; LANES] = (&mut out_row[j..j + LANES]).try_into().unwrap();
                axpy_lanes(o, a0, b0[j..j + LANES].try_into().unwrap());
                j += LANES;
            }
            for (o, &v0) in out_row[j..].iter_mut().zip(&b0[j..]) {
                *o += a0 * v0;
            }
            kk += 1;
        }
    }

    fn transpose_matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            transpose_matmul_row_oracle(a, i, b, out.row_mut(i));
        }
        out
    }

    fn bits(m: &[f32]) -> Vec<u32> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transpose_matmul_matches_per_row_oracle_bitwise() {
        // k straddles the quad unroll (k % 4 ∈ {0, 1, 3}) up to a TGAT-sized
        // batch; n straddles the lane block; m = 1 is the single-row slab.
        for &k in &[1, 3, 4, 7, 10800] {
            for &n in &[1, 7, 8, 48] {
                for &m in &[1, 5, 13] {
                    let a = pseudo_random(k, m, (k * 131 + n * 7 + m) as u64);
                    let b = pseudo_random(k, n, (k * 17 + n * 3 + m) as u64);
                    assert_eq!(
                        bits(a.transpose_matmul(&b).as_slice()),
                        bits(transpose_matmul_oracle(&a, &b).as_slice()),
                        "transpose_matmul {k}x{m}ᵀ · {k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_matmul_slab_start_cannot_change_bits() {
        // Every thread partition hands the kernel a slab starting at some
        // row `first`; each slab must reproduce the oracle rows exactly.
        let (k, m) = (203, 29);
        for &n in &[1, 7, 8, 48] {
            let a = pseudo_random(k, m, 5 + n as u64);
            let b = pseudo_random(k, n, 9 + n as u64);
            let want = transpose_matmul_oracle(&a, &b);
            for &(first, rows) in &[(1, 1), (3, 4), (6, 7), (17, 12), (0, 29)] {
                let mut block = vec![f32::NAN; rows * n];
                transpose_matmul_block_kernel(a.as_slice(), m, first, b.as_slice(), n, &mut block);
                assert_eq!(
                    bits(&block),
                    bits(&want.as_slice()[first * n..(first + rows) * n]),
                    "slab rows {first}..{} at n = {n}",
                    first + rows
                );
            }
        }
    }

    /// The per-element `A·Bᵀ` loop the lane-parallel kernel replaced, kept
    /// as the bit-exact oracle: entry `(i, j)` is one [`dot`] of `A` row `i`
    /// and `B` row `j`.
    fn matmul_transpose_dot_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.set(i, j, dot(a.row(i), b.row(j)));
            }
        }
        out
    }

    #[test]
    fn matmul_transpose_matches_dot_oracle_bitwise() {
        // k straddles the quad unroll, n the lane block (n < LANES is all
        // tail); 72·72·72 > PAR_FLOPS fans the kernel out on a multi-thread
        // pool.
        let shapes = [
            (1, 1, 1),
            (1, 7, 9),
            (3, 4, 8),
            (5, 5, 7),
            (6, 6, 17),
            (13, 10, 48),
            (4, 203, 29),
            (72, 72, 72),
        ];
        for &(m, k, n) in &shapes {
            let a = pseudo_random(m, k, (m * 31 + k * 7 + n) as u64);
            let b = pseudo_random(n, k, (m * 3 + k * 17 + n) as u64);
            assert_eq!(
                bits(a.matmul_transpose(&b).as_slice()),
                bits(matmul_transpose_dot_oracle(&a, &b).as_slice()),
                "matmul_transpose {m}x{k} · ({n}x{k})ᵀ"
            );
        }
    }

    /// Seeded values with every seventh entry replaced by −0.0, a positive
    /// or negative subnormal, or a tiny normal whose products underflow,
    /// plus one +inf and one −inf per matrix, so outputs mix finite,
    /// subnormal, infinite and NaN results.
    fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = pseudo_random(rows, cols, seed);
        let specials = [
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            1e-20,
        ];
        let data = m.as_mut_slice();
        for (i, x) in data.iter_mut().enumerate().skip(3).step_by(7) {
            *x = specials[i % specials.len()];
        }
        let len = data.len();
        data[0] = f32::INFINITY;
        data[len - 1] = f32::NEG_INFINITY;
        m
    }

    /// `(a, a_cols, first, b, n, block)`: the signature every slab kernel shares.
    type SlabKernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

    #[test]
    fn dispatched_kernels_match_portable_bodies_bitwise() {
        if kernel_isa() == "portable" {
            println!("kernel_isa() = portable: compared the portable kernels to themselves");
        }
        // m % 4 and k % 4 ∈ {0, 1, 2, 3} with m = 1; n < LANES, n % LANES ≠ 0
        // and whole lane blocks.
        for &m in &[1, 2, 3, 4, 9] {
            for &k in &[1, 2, 3, 4, 13] {
                for &n in &[3, 7, 8, 13, 20] {
                    let seed = (m * 100 + k * 10 + n) as u64;
                    let run = |kernel: SlabKernel, a: &Matrix, a_cols: usize, b: &Matrix| {
                        let mut block = vec![f32::NAN; m * n];
                        kernel(a.as_slice(), a_cols, 0, b.as_slice(), n, &mut block);
                        bits(&block)
                    };
                    // A·B: A m×k, B k×n.
                    let (a, b) = (awkward(m, k, seed), awkward(k, n, seed + 1));
                    assert_eq!(
                        run(matmul_block_kernel, &a, k, &b),
                        run(matmul_block_portable, &a, k, &b),
                        "matmul {m}x{k}x{n}"
                    );
                    // Aᵀ·B: A k×m, B k×n.
                    let at = awkward(k, m, seed + 2);
                    assert_eq!(
                        run(transpose_matmul_block_kernel, &at, m, &b),
                        run(transpose_matmul_block_portable, &at, m, &b),
                        "transpose_matmul {k}x{m}ᵀ · {k}x{n}"
                    );
                    // A·Bᵀ from the k×n transpose: A m×k.
                    assert_eq!(
                        run(matmul_transpose_block_kernel, &a, k, &b),
                        run(matmul_transpose_block_portable, &a, k, &b),
                        "matmul_transpose {m}x{k} · ({n}x{k})ᵀ"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_into_overwrites_dirty_buffers() {
        let a = pseudo_random(5, 8, 1);
        let b = pseudo_random(8, 3, 2);
        let mut out = Matrix::full(5, 3, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn large_matmul_crosses_parallel_threshold() {
        // 72³ > PAR_FLOPS: exercises the row-partitioned path (inline on a
        // 1-thread pool, fanned out otherwise) against the naive result.
        let a = pseudo_random(72, 72, 3);
        let b = pseudo_random(72, 72, 4);
        assert!(a.matmul(&b).approx_eq(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn fused_in_place_variants() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);

        let mut out = Matrix::zeros(2, 2);
        a.map_into(&mut out, |x| x.abs());
        assert_eq!(out, a.map(f32::abs));

        a.zip_into(&b, &mut out, |x, y| x + y);
        assert_eq!(out, a.zip(&b, |x, y| x + y));

        let mut c = a.clone();
        c.map_inplace(|x| x * 2.0);
        assert_eq!(c, a.map(|x| x * 2.0));

        c.copy_from(&a);
        assert_eq!(c, a);
        c.scale_inplace(0.5);
        assert_eq!(c, a.map(|x| x * 0.5));
    }
}
