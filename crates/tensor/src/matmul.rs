//! Matrix products: the compute core of the workspace.
//!
//! Three variants cover everything `ftclip-nn` needs:
//!
//! * [`matmul`]    — `C = A · B`       (forward passes)
//! * [`matmul_tn`] — `C = Aᵀ · B`      (input-gradient of linear layers)
//! * [`matmul_nt`] — `C = A · Bᵀ`      (weight-gradient and linear forward)
//!
//! All variants parallelize over contiguous bands of output rows
//! ([`crate::par_row_bands`]) and run cache-blocked micro-kernels inside each
//! band: the output row is tiled into [`J_TILE`]-column strips that stay in
//! L1, the reduction dimension is cut into [`K_BLOCK`]-row panels of `B` that
//! are reused across every row of the band while L2-resident, and the
//! innermost loop unrolls four `a_ik` coefficients per pass over the strip.
//!
//! **Bit-exactness contract.** Every output element is accumulated in
//! ascending-`k` order with one rounding per non-zero `a_ik` — exactly the
//! naive `i-k-j` kernel's floating-point sequence — and each element is
//! produced by exactly one thread. Blocking, unrolling and the thread count
//! therefore change scheduling only, never a single output bit; the
//! `ftclip_store` campaign cache and the golden figure snapshots survive any
//! kernel-tuning change that preserves this contract.
//!
//! **ISA dispatch.** On x86-64 the blocked core behind [`matmul_into`],
//! [`matmul_tn`] and [`gemm_accumulate`] runs as an AVX-512F or AVX2 build
//! when the CPU has one, chosen at runtime, and as the baseline build
//! otherwise. The builds share one source and differ only in how many
//! independent output elements a vector instruction holds, so the contract
//! above holds per ISA: each element's multiplies and adds stay separate
//! (Rust never contracts them into FMA) and in the same order. The FC
//! kernel [`matmul_nt_into`] is not dispatched.

use crate::par::par_row_bands;
use crate::Tensor;

/// Output columns per micro-kernel strip: 512 f32 = 2 KB of `C` (and of each
/// `B`-row segment), small enough that the strip plus four `B` segments stay
/// in L1 while the unrolled loop runs.
const J_TILE: usize = 512;

/// Reduction rows per `B` panel: a `K_BLOCK × J_TILE` panel is 128 KB,
/// L2-resident across the band's row loop so `B` is streamed from memory
/// once per panel instead of once per output row.
const K_BLOCK: usize = 64;

/// Output rows per `A`-row tile in [`matmul_nt`]: one `B` row is reused
/// across this many dot products while it sits in L1.
const NT_ROW_TILE: usize = 8;

/// `C = A · B` for `A: [m, k]`, `B: [k, n]` → `C: [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ftclip_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
/// assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(ka, kb, "matmul inner dimension mismatch: {} vs {}", a.shape(), b.shape());
    let mut c = Tensor::zeros(&[m, n]);
    matmul_into(a, b, &mut c);
    c
}

/// `C += A · B`, writing into a preallocated output (used by the conv kernels
/// and the inference scratch arena to avoid reallocating per batch item).
///
/// # Panics
///
/// Panics on any rank or dimension mismatch between `a`, `b` and `c`.
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, ka) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    let (mc, nc) = c.shape().as_matrix();
    assert_eq!(ka, kb, "matmul inner dimension mismatch");
    assert_eq!((m, n), (mc, nc), "matmul output shape mismatch");
    let k = ka;
    // Wide-and-short products (few output rows, huge column count — the
    // batched-convolution shape) parallelize poorly over rows; split the
    // columns across threads instead.
    if m < crate::par::num_threads() && n >= 4096 {
        matmul_into_col_parallel(a.data(), b.data(), c.data_mut(), m, k, n);
        return;
    }
    let a_data = a.data();
    let b_data = b.data();
    par_row_bands(c.data_mut(), n, |first_row, band| {
        accumulate_band(a_data, b_data, band, first_row, k, n, n, 0);
    });
}

/// Blocked `band[r] += A[first_row + r] · B`-panel product for one band of
/// whole output rows, where the band's rows are `row_len` long and the
/// micro-kernel reads `B` columns `b_col0 .. b_col0 + row_len`.
///
/// Runs the widest build of [`band_kernel`] the CPU supports (see
/// [`simd::Build`]); every build replays the same per-element chain, so the
/// choice never changes an output bit.
fn accumulate_band(
    a: &[f32],
    b: &[f32],
    band: &mut [f32],
    first_row: usize,
    k: usize,
    b_stride: usize,
    row_len: usize,
    b_col0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(build) = simd::Build::widest() {
        build.run(a, b, band, first_row, k, b_stride, row_len, b_col0);
        return;
    }
    band_kernel(a, b, band, first_row, k, b_stride, row_len, b_col0);
}

/// Runtime-dispatched x86-64 builds of [`band_kernel`].
///
/// There is no hand-written SIMD here: each build is the portable kernel
/// compiled with a wider target feature, so LLVM vectorizes the `j` loops
/// 16 (AVX-512F) or 8 (AVX2) lanes wide instead of SSE2's 4. Lane width
/// only regroups independent output elements; each element still sees one
/// multiply and one add per non-zero coefficient, ascending in `k`. Rust
/// never contracts a separate multiply and add into an FMA, so every build
/// is bit-identical to the baseline one
/// (`dispatched_builds_match_baseline_bitwise` pins this per build).
///
/// The calls into the `#[target_feature]` functions are the only `unsafe`
/// outside the int8 kernels' island (`int8::simd`), each right behind its
/// feature check.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::band_kernel;

    /// One ISA build of [`band_kernel`].
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Build {
        /// 16 `f32` lanes.
        Avx512,
        /// 8 `f32` lanes.
        Avx2,
    }

    impl Build {
        /// Every build, widest first.
        pub(super) const ALL: [Build; 2] = [Build::Avx512, Build::Avx2];

        /// The widest build this CPU supports; `None` means the caller must
        /// run the baseline build.
        pub(super) fn widest() -> Option<Build> {
            Build::ALL.into_iter().find(|build| build.detected())
        }

        /// Whether this CPU has the build's target feature.
        pub(super) fn detected(self) -> bool {
            match self {
                Build::Avx512 => is_x86_feature_detected!("avx512f"),
                Build::Avx2 => is_x86_feature_detected!("avx2"),
            }
        }

        /// Runs [`band_kernel`] as compiled for this build.
        ///
        /// # Panics
        ///
        /// Panics if the CPU lacks the build's target feature.
        pub(super) fn run(
            self,
            a: &[f32],
            b: &[f32],
            band: &mut [f32],
            first_row: usize,
            k: usize,
            b_stride: usize,
            row_len: usize,
            b_col0: usize,
        ) {
            assert!(self.detected(), "{self:?} build run on a CPU without its target feature");
            match self {
                // SAFETY: `detected()` just confirmed `avx512f` on this CPU.
                #[allow(unsafe_code)]
                Build::Avx512 => unsafe { band_avx512(a, b, band, first_row, k, b_stride, row_len, b_col0) },
                // SAFETY: `detected()` just confirmed `avx2` on this CPU.
                #[allow(unsafe_code)]
                Build::Avx2 => unsafe { band_avx2(a, b, band, first_row, k, b_stride, row_len, b_col0) },
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    fn band_avx512(
        a: &[f32],
        b: &[f32],
        band: &mut [f32],
        first_row: usize,
        k: usize,
        b_stride: usize,
        row_len: usize,
        b_col0: usize,
    ) {
        band_kernel(a, b, band, first_row, k, b_stride, row_len, b_col0);
    }

    #[target_feature(enable = "avx2")]
    fn band_avx2(
        a: &[f32],
        b: &[f32],
        band: &mut [f32],
        first_row: usize,
        k: usize,
        b_stride: usize,
        row_len: usize,
        b_col0: usize,
    ) {
        band_kernel(a, b, band, first_row, k, b_stride, row_len, b_col0);
    }
}

/// The portable body of [`accumulate_band`], inlined into each ISA build.
///
/// Loop order is `j`-strip → `k`-panel → band row, so one L2-resident panel
/// of `B` serves every row of the band before the next panel is streamed in.
/// Per output element the accumulation order stays ascending-`k`.
#[inline(always)]
fn band_kernel(
    a: &[f32],
    b: &[f32],
    band: &mut [f32],
    first_row: usize,
    k: usize,
    b_stride: usize,
    row_len: usize,
    b_col0: usize,
) {
    let mut j0 = 0;
    while j0 < row_len {
        let j1 = (j0 + J_TILE).min(row_len);
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + K_BLOCK).min(k);
            // Rows go four at a time so each loaded `B` vector feeds four
            // accumulator rows (the kernel is FMA-bound instead of
            // load-bound); stragglers take the single-row kernel. Either
            // way every output element sees its own ascending-`k` chain.
            let mut rows_iter = band.chunks_mut(row_len);
            let mut i = first_row;
            let a_block = |i: usize| &a[i * k + k0..i * k + k1];
            while let Some(row0) = rows_iter.next() {
                let c0 = &mut row0[j0..j1];
                match (rows_iter.next(), rows_iter.next(), rows_iter.next()) {
                    (Some(row1), Some(row2), Some(row3)) => {
                        micro_kernel_x4(
                            [a_block(i), a_block(i + 1), a_block(i + 2), a_block(i + 3)],
                            b,
                            b_stride,
                            b_col0 + j0,
                            k0,
                            c0,
                            &mut row1[j0..j1],
                            &mut row2[j0..j1],
                            &mut row3[j0..j1],
                        );
                        i += 4;
                    }
                    (r1, r2, r3) => {
                        micro_kernel(a_block(i), b, b_stride, b_col0 + j0, k0, c0);
                        i += 1;
                        for row in [r1, r2, r3].into_iter().flatten() {
                            micro_kernel(a_block(i), b, b_stride, b_col0 + j0, k0, &mut row[j0..j1]);
                            i += 1;
                        }
                    }
                }
            }
            k0 = k1;
        }
        j0 = j1;
    }
}

/// `c_strip[j] += Σ_dk a_block[dk] · B[k0 + dk, b_col0 + j]`, ascending `dk`,
/// skipping zero coefficients — one rounding per non-zero coefficient, the
/// exact floating-point sequence of the naive kernel.
///
/// Four coefficients are peeled per pass so the strip element is loaded and
/// stored once per four multiply-adds; the four adds stay in program order,
/// so vectorization happens across `j` lanes only and per-element bits are
/// unchanged.
#[inline(always)]
fn micro_kernel(a_block: &[f32], b: &[f32], b_stride: usize, b_col0: usize, k0: usize, c_strip: &mut [f32]) {
    let mut dk = 0;
    while dk + 4 <= a_block.len() {
        let aq = [a_block[dk], a_block[dk + 1], a_block[dk + 2], a_block[dk + 3]];
        quad_strip(aq, b, b_stride, (k0 + dk) * b_stride + b_col0, c_strip);
        dk += 4;
    }
    while dk < a_block.len() {
        axpy_strip(a_block[dk], b, (k0 + dk) * b_stride + b_col0, c_strip);
        dk += 1;
    }
}

/// One four-coefficient pass of the single-row kernel: the strip element is
/// loaded and stored once per four multiply-adds when all four coefficients
/// are non-zero, with per-coefficient axpy (zeros skipped) otherwise.
#[inline(always)]
fn quad_strip(aq: [f32; 4], b: &[f32], b_stride: usize, base: usize, c_strip: &mut [f32]) {
    let width = c_strip.len();
    let [a0, a1, a2, a3] = aq;
    if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
        let b0 = &b[base..base + width];
        let b1 = &b[base + b_stride..base + b_stride + width];
        let b2 = &b[base + 2 * b_stride..base + 2 * b_stride + width];
        let b3 = &b[base + 3 * b_stride..base + 3 * b_stride + width];
        for ((((c_v, &v0), &v1), &v2), &v3) in c_strip.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            let mut acc = *c_v;
            acc += a0 * v0;
            acc += a1 * v1;
            acc += a2 * v2;
            acc += a3 * v3;
            *c_v = acc;
        }
    } else {
        // a zero coefficient must be skipped, not multiplied through:
        // `x + 0·b` is not always bit-identical to `x` (signed zeros,
        // non-finite b under injected faults)
        for (t, a_v) in aq.into_iter().enumerate() {
            axpy_strip(a_v, b, base + t * b_stride, c_strip);
        }
    }
}

/// Four-row variant of [`micro_kernel`]: one pass over the `B` panel strip
/// feeds four accumulator rows, so each loaded `B` vector is reused four
/// times and the inner loop is FMA-bound instead of load-bound.
///
/// The joint fast path requires all sixteen coefficients of the quad to be
/// non-zero; any zero drops the quad to four single-row [`quad_strip`]
/// passes. Either way each output element only ever sees its own row's
/// coefficients, ascending in `k` with zeros skipped — per-element bits are
/// identical to the single-row kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_x4(
    a: [&[f32]; 4],
    b: &[f32],
    b_stride: usize,
    b_col0: usize,
    k0: usize,
    c0: &mut [f32],
    c1: &mut [f32],
    c2: &mut [f32],
    c3: &mut [f32],
) {
    let width = c0.len();
    let len = a[0].len();
    let mut dk = 0;
    while dk + 4 <= len {
        let q: [[f32; 4]; 4] = [0, 1, 2, 3].map(|r| [a[r][dk], a[r][dk + 1], a[r][dk + 2], a[r][dk + 3]]);
        let base = (k0 + dk) * b_stride + b_col0;
        if q.iter().flatten().all(|v| *v != 0.0) {
            let b0 = &b[base..base + width];
            let b1 = &b[base + b_stride..base + b_stride + width];
            let b2 = &b[base + 2 * b_stride..base + 2 * b_stride + width];
            let b3 = &b[base + 3 * b_stride..base + 3 * b_stride + width];
            let (c0, c1) = (&mut c0[..width], &mut c1[..width]);
            let (c2, c3) = (&mut c2[..width], &mut c3[..width]);
            for j in 0..width {
                let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                let mut x = c0[j];
                x += q[0][0] * v0;
                x += q[0][1] * v1;
                x += q[0][2] * v2;
                x += q[0][3] * v3;
                c0[j] = x;
                let mut x = c1[j];
                x += q[1][0] * v0;
                x += q[1][1] * v1;
                x += q[1][2] * v2;
                x += q[1][3] * v3;
                c1[j] = x;
                let mut x = c2[j];
                x += q[2][0] * v0;
                x += q[2][1] * v1;
                x += q[2][2] * v2;
                x += q[2][3] * v3;
                c2[j] = x;
                let mut x = c3[j];
                x += q[3][0] * v0;
                x += q[3][1] * v1;
                x += q[3][2] * v2;
                x += q[3][3] * v3;
                c3[j] = x;
            }
        } else {
            quad_strip(q[0], b, b_stride, base, c0);
            quad_strip(q[1], b, b_stride, base, c1);
            quad_strip(q[2], b, b_stride, base, c2);
            quad_strip(q[3], b, b_stride, base, c3);
        }
        dk += 4;
    }
    while dk < len {
        let base = (k0 + dk) * b_stride + b_col0;
        axpy_strip(a[0][dk], b, base, c0);
        axpy_strip(a[1][dk], b, base, c1);
        axpy_strip(a[2][dk], b, base, c2);
        axpy_strip(a[3][dk], b, base, c3);
        dk += 1;
    }
}

/// `c_strip += a_v · b[base..]` for a single coefficient, skipping zeros.
#[inline(always)]
fn axpy_strip(a_v: f32, b: &[f32], base: usize, c_strip: &mut [f32]) {
    if a_v == 0.0 {
        return;
    }
    let b_seg = &b[base..base + c_strip.len()];
    for (c_v, &b_v) in c_strip.iter_mut().zip(b_seg) {
        *c_v += a_v * b_v;
    }
}

/// Column-parallel kernel for `m < threads`: each worker owns a contiguous
/// column band of every output row, accumulates it in a local buffer
/// (L2-resident) **seeded from the existing `C` values**, and the bands are
/// copied back afterwards. Seeding (rather than summing into zeros and
/// adding the prior `C` in one extra rounding) keeps the per-element chain
/// identical to the row-banded path, so the thread-count-dependent dispatch
/// between the two paths can never change an output bit — even for callers
/// accumulating into nonzero `C`.
fn matmul_into_col_parallel(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = crate::par::num_threads();
    let band = n.div_ceil(threads);
    let results: Vec<(usize, usize, Vec<f32>)> = {
        let c_init: &[f32] = c;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let j0 = t * band;
                if j0 >= n {
                    break;
                }
                let j1 = ((t + 1) * band).min(n);
                let width = j1 - j0;
                handles.push(scope.spawn(move || {
                    let mut local = vec![0.0f32; m * width];
                    for i in 0..m {
                        local[i * width..(i + 1) * width]
                            .copy_from_slice(&c_init[i * n + j0..i * n + j0 + width]);
                    }
                    accumulate_band(a, b, &mut local, 0, k, n, width, j0);
                    (j0, width, local)
                }));
            }
            handles.into_iter().map(|h| h.join().expect("matmul worker panicked")).collect()
        })
    };
    for (j0, width, local) in results {
        for i in 0..m {
            c[i * n + j0..i * n + j0 + width].copy_from_slice(&local[i * width..(i + 1) * width]);
        }
    }
}

/// `out += A · B` on raw slices: `A: [m, k]`, `B: [k, n]`,
/// `out: [m, n]` with `m` inferred from `out.len() / n`.
///
/// This is the blocked accumulation core of [`matmul_into`] exposed for plan
/// executors that accumulate directly into a strided view of a larger buffer
/// (e.g. one image's `[out_channels, oh·ow]` rows of a batched NCHW output,
/// which are contiguous). The bit-exactness contract of the module holds
/// unchanged: every output element is accumulated in ascending-`k` order with
/// one rounding per non-zero `a_ik`, zero coefficients skipped.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(k, n)`.
pub fn gemm_accumulate(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert!(n > 0 && out.len().is_multiple_of(n), "gemm_accumulate output not a whole number of rows");
    let m = out.len() / n;
    assert_eq!(a.len(), m * k, "gemm_accumulate A size mismatch");
    assert_eq!(b.len(), k * n, "gemm_accumulate B size mismatch");
    accumulate_band(a, b, out, 0, k, n, n, 0);
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` → `C: [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the leading dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(ka, kb, "matmul_tn leading dimension mismatch: {} vs {}", a.shape(), b.shape());
    let k = ka;
    let mut c = Tensor::zeros(&[m, n]);
    let a_data = a.data();
    let b_data = b.data();
    par_row_bands(c.data_mut(), n, |first_row, band| {
        // gather the strided A column once per output row (O(k), negligible
        // next to the O(k·n) product) so the blocked contiguous micro-kernel
        // applies unchanged
        let mut a_col = vec![0.0f32; k];
        for (bi, c_row) in band.chunks_mut(n).enumerate() {
            let i = first_row + bi; // column index of A = row index of C
            for (kk, slot) in a_col.iter_mut().enumerate() {
                *slot = a_data[kk * m + i];
            }
            accumulate_band(&a_col, b_data, c_row, 0, k, n, n, 0);
        }
    });
    c
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` → `C: [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the trailing dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = a.shape().as_matrix();
    let (n, kb) = b.shape().as_matrix();
    assert_eq!(ka, kb, "matmul_nt trailing dimension mismatch: {} vs {}", a.shape(), b.shape());
    let mut c = Tensor::zeros(&[m, n]);
    matmul_nt_into(a, b, &mut c);
    c
}

/// `C = A · Bᵀ` written into a preallocated output: every element of `c` is
/// overwritten (not accumulated), so callers may pass recycled scratch
/// storage. This is the linear layer's forward kernel.
///
/// # Panics
///
/// Panics on any rank or dimension mismatch between `a`, `b` and `c`.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, ka) = a.shape().as_matrix();
    let (n, kb) = b.shape().as_matrix();
    let (mc, nc) = c.shape().as_matrix();
    assert_eq!(ka, kb, "matmul_nt trailing dimension mismatch: {} vs {}", a.shape(), b.shape());
    assert_eq!((m, n), (mc, nc), "matmul_nt output shape mismatch");
    let k = ka;
    let a_data = a.data();
    let b_data = b.data();
    par_row_bands(c.data_mut(), n, |first_row, band| {
        // tile the band's rows so one L1-resident B row serves a whole tile
        // of dot products before the next B row is streamed in; each dot
        // product remains a single ascending-k accumulator chain
        let rows = band.len() / n;
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + NT_ROW_TILE).min(rows);
            for j in 0..n {
                let b_row = &b_data[j * k..(j + 1) * k];
                for r in r0..r1 {
                    let i = first_row + r;
                    let a_row = &a_data[i * k..(i + 1) * k];
                    let mut acc = 0.0f32;
                    for (&a_v, &b_v) in a_row.iter().zip(b_row) {
                        acc += a_v * b_v;
                    }
                    band[r * n + j] = acc;
                }
            }
            r0 = r1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(kk, j);
                }
                c.data_mut()[i * n + j] = acc;
            }
        }
        c
    }

    fn arange(dims: &[usize]) -> Tensor {
        let vol: usize = dims.iter().product();
        Tensor::from_vec((0..vol).map(|x| (x as f32 * 0.37).sin()).collect(), dims).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arange(&[7, 5]);
        let b = arange(&[5, 9]);
        assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        // nonzero data: the zero-skip never fires, so the blocked kernel must
        // replay the naive kernel's exact rounding sequence
        let a = arange(&[5, 7]);
        let b = arange(&[7, 6]);
        assert_eq!(bits(&matmul(&a, &b)), bits(&naive_matmul(&a, &b)));
    }

    #[test]
    fn matmul_bitwise_across_tile_boundaries() {
        // k and n straddle K_BLOCK and J_TILE so every block-edge code path
        // (full 4-unroll, remainder, partial strips) is exercised
        for (m, k, n) in [(3, K_BLOCK + 3, J_TILE + 5), (2, 4 * K_BLOCK + 1, 17), (1, 3, 2 * J_TILE)] {
            let a = arange(&[m, k]);
            let b = arange(&[k, n]);
            assert_eq!(bits(&matmul(&a, &b)), bits(&naive_matmul(&a, &b)), "[{m},{k}]x[{k},{n}]");
        }
    }

    #[test]
    fn zero_coefficients_are_skipped_not_multiplied() {
        // a zero a_ik must contribute nothing even when B holds non-finite
        // values (injected faults): 0·inf would poison the row with NaN
        let mut a = arange(&[2, 5]);
        a.data_mut()[1] = 0.0; // row 0, k=1
        a.data_mut()[7] = 0.0; // row 1, k=2
        let mut b = arange(&[5, 4]);
        b.data_mut()[4] = f32::INFINITY; // k=1, column 0
        b.data_mut()[9] = f32::NAN; // k=2, column 1
        let c = matmul(&a, &b);
        assert!(c.at2(0, 0).is_finite(), "zero-skip must ignore the inf element");
        assert!(c.at2(1, 1).is_finite(), "zero-skip must ignore the NaN element");
        assert!(c.at2(1, 0).is_infinite(), "non-skipped inf must still propagate");
        assert!(c.at2(0, 1).is_nan(), "non-skipped NaN must still propagate");
    }

    #[test]
    fn matmul_identity() {
        let a = arange(&[4, 4]);
        assert!(matmul(&a, &Tensor::eye(4)).approx_eq(&a, 1e-6));
        assert!(matmul(&Tensor::eye(4), &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = arange(&[6, 3]); // Aᵀ is [3, 6]
        let b = arange(&[6, 4]);
        let expected = {
            // materialize Aᵀ and multiply naively
            let (k, m) = a.shape().as_matrix();
            let mut at = Tensor::zeros(&[m, k]);
            for i in 0..k {
                for j in 0..m {
                    at.data_mut()[j * k + i] = a.at2(i, j);
                }
            }
            naive_matmul(&at, &b)
        };
        assert!(matmul_tn(&a, &b).approx_eq(&expected, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = arange(&[5, 3]);
        let b = arange(&[7, 3]); // Bᵀ is [3, 7]
        let expected = {
            let (n, k) = b.shape().as_matrix();
            let mut bt = Tensor::zeros(&[k, n]);
            for i in 0..n {
                for j in 0..k {
                    bt.data_mut()[j * n + i] = b.at2(i, j);
                }
            }
            naive_matmul(&a, &bt)
        };
        assert!(matmul_nt(&a, &b).approx_eq(&expected, 1e-5));
    }

    #[test]
    fn matmul_nt_row_tiling_is_bit_invariant() {
        // more rows than NT_ROW_TILE: tiled and untiled element chains are
        // the same single ascending-k accumulator, so bits must match the
        // explicit per-element dot product
        let a = arange(&[3 * NT_ROW_TILE + 1, 9]);
        let b = arange(&[5, 9]);
        let c = matmul_nt(&a, &b);
        let (m, k) = a.shape().as_matrix();
        let (n, _) = b.shape().as_matrix();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(j, kk);
                }
                assert_eq!(c.at2(i, j).to_bits(), acc.to_bits(), "element ({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut c = Tensor::ones(&[2, 2]);
        matmul_into(&a, &b, &mut c);
        assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matmul_nt_into_overwrites() {
        let a = arange(&[3, 4]);
        let b = arange(&[5, 4]);
        let mut c = Tensor::filled(&[3, 5], 123.0); // recycled-scratch garbage
        matmul_nt_into(&a, &b, &mut c);
        assert_eq!(bits(&c), bits(&matmul_nt(&a, &b)));
    }

    #[test]
    fn gemm_accumulate_bitwise_matches_matmul_into() {
        // straddle K_BLOCK and J_TILE, seed the output nonzero: the exposed
        // slice core must replay matmul_into's exact rounding chain
        let (m, k, n) = (5, K_BLOCK + 7, J_TILE + 9);
        let a = arange(&[m, k]);
        let b = arange(&[k, n]);
        let mut via_tensor = Tensor::filled(&[m, n], 0.5);
        matmul_into(&a, &b, &mut via_tensor);
        let mut via_slices = vec![0.5f32; m * n];
        gemm_accumulate(a.data(), b.data(), &mut via_slices, k, n);
        let got: Vec<u32> = via_slices.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, bits(&via_tensor));
    }

    #[test]
    fn large_parallel_matmul_consistent() {
        // Exercise the multi-band path (more rows than threads).
        let a = arange(&[64, 33]);
        let b = arange(&[33, 17]);
        assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn wide_short_product_uses_column_parallel_path_correctly() {
        // m = 3 rows (< threads on multi-core hosts), n = 5000 columns:
        // triggers the column-parallel kernel there; verify against naive.
        let a = arange(&[3, 7]);
        let b = arange(&[7, 5000]);
        let got = matmul(&a, &b);
        let expect = naive_matmul(&a, &b);
        assert!(got.approx_eq(&expect, 1e-3));
    }

    #[test]
    fn column_parallel_kernel_direct() {
        // call the kernel directly so it is covered even on single-core
        // hosts where the dispatch condition never selects it
        let a = arange(&[3, 7]);
        let b = arange(&[7, 4500]);
        let mut c = Tensor::zeros(&[3, 4500]);
        matmul_into_col_parallel(a.data(), b.data(), c.data_mut(), 3, 7, 4500);
        assert!(c.approx_eq(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn column_parallel_kernel_bitwise_matches_row_kernel() {
        // the col path seeds its local bands from C, so both paths replay
        // the same per-element rounding chain — even when C starts nonzero —
        // and the thread-count-dependent dispatch can never change bits
        let a = arange(&[3, 39]);
        let b = arange(&[39, 4400]);
        for seed in [0.0f32, 1e8] {
            let mut col = Tensor::filled(&[3, 4400], seed);
            matmul_into_col_parallel(a.data(), b.data(), col.data_mut(), 3, 39, 4400);
            let mut row = Tensor::filled(&[3, 4400], seed);
            par_row_bands(row.data_mut(), 4400, |first_row, band| {
                accumulate_band(a.data(), b.data(), band, first_row, 39, 4400, 4400, 0);
            });
            assert_eq!(bits(&col), bits(&row), "C seeded with {seed}");
        }
    }

    /// Every ISA build of the band kernel against the baseline build.
    #[cfg(target_arch = "x86_64")]
    mod builds {
        use super::super::*;

        /// Values a fault campaign puts in front of the kernel besides ordinary
        /// weights: both zeros, subnormals, the huge magnitudes an exponent
        /// bit-flip produces, ±inf and NaN.
        const SPECIALS: [f32; 10] = [
            0.0,
            -0.0,
            1e-40,
            -3e-39,
            f32::MIN_POSITIVE,
            1.7e38,
            -3.4e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];

        /// Deterministic fill: ordinary nonzero values with roughly
        /// `special_per_mille`‰ of them replaced by [`SPECIALS`].
        fn fault_fill(len: usize, seed: u64, special_per_mille: u64) -> Vec<f32> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let x = state >> 33;
                    if x % 1000 < special_per_mille {
                        SPECIALS[(x / 1000) as usize % SPECIALS.len()]
                    } else {
                        let mag = 0.01 + (x / 1000 % 4000) as f32 / 1000.0;
                        if x & 1 == 0 {
                            mag
                        } else {
                            -mag
                        }
                    }
                })
                .collect()
        }

        /// Bit-identical, except that a NaN need only meet a NaN (its payload
        /// is not part of the contract).
        fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
            for (idx, (g, w)) in got.iter().zip(want).enumerate() {
                if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
                    return Err(format!(
                        "index {idx}: {g:e} ({:#010x}) vs {w:e} ({:#010x})",
                        g.to_bits(),
                        w.to_bits()
                    ));
                }
            }
            Ok(())
        }

        /// Runs `c += a · b` (`a: [m, k]`, `b: [k, n]`, `c: [m, n]`) through every
        /// dispatched build this CPU supports and checks each against the
        /// baseline build. Rows `1..` and columns `1..n - 1` also go through the
        /// sub-window form the column-parallel path uses (`first_row`,
        /// `b_col0` and `row_len < b_stride`).
        fn check_builds(a: &[f32], b: &[f32], c: &[f32], k: usize, n: usize) -> Result<(), String> {
            let m = c.len() / n;
            let mut want = c.to_vec();
            band_kernel(a, b, &mut want, 0, k, n, n, 0);
            let window: Vec<f32> = if m > 1 && n > 2 {
                (1..m).flat_map(|i| c[i * n + 1..i * n + n - 1].to_vec()).collect()
            } else {
                vec![]
            };
            let mut want_window = window.clone();
            if !window.is_empty() {
                band_kernel(a, b, &mut want_window, 1, k, n, n - 2, 1);
            }
            for build in simd::Build::ALL.into_iter().filter(|build| build.detected()) {
                let mut got = c.to_vec();
                build.run(a, b, &mut got, 0, k, n, n, 0);
                same_bits(&got, &want).map_err(|e| format!("{build:?} [{m},{k}]x[{k},{n}]: {e}"))?;
                if !window.is_empty() {
                    let mut got = window.clone();
                    build.run(a, b, &mut got, 1, k, n, n - 2, 1);
                    same_bits(&got, &want_window)
                        .map_err(|e| format!("{build:?} window [{m},{k}]x[{k},{n}]: {e}"))?;
                }
            }
            Ok(())
        }

        #[test]
        fn dispatched_builds_match_baseline_bitwise() {
            // columns straddle 16, 8 and 4 lanes and the J_TILE strip; rows
            // cover the single-row stragglers of the 4-row kernel; depths
            // straddle the 4-coefficient unroll and the K_BLOCK panel
            let cols = [1, 7, 15, 17, 63, 64, 65, J_TILE - 1, J_TILE, J_TILE + 1];
            let rows_depths =
                [(1, 1), (3, 5), (5, K_BLOCK - 1), (6, K_BLOCK), (9, K_BLOCK + 1), (4, 2 * K_BLOCK + 3)];
            for n in cols {
                for (m, k) in rows_depths {
                    let seed = (m * 1000 + k * 10 + n) as u64;
                    // no specials (the all-nonzero fast paths), a few, many
                    for per_mille in [0, 20, 150] {
                        let a = fault_fill(m * k, seed, per_mille);
                        let b = fault_fill(k * n, seed + 1, per_mille);
                        let c = fault_fill(m * n, seed + 2, per_mille);
                        check_builds(&a, &b, &c, k, n).unwrap();
                    }
                }
            }
        }

        #[test]
        fn dispatched_builds_skip_zero_coefficients_over_non_finite_b() {
            // every row's coefficient at k = 1 and k = 6 is ±0 and those B rows
            // are all ±inf / NaN: a build that multiplied through would poison
            // every output, a skipping one leaves them finite
            let (m, k, n) = (7, 9, 70);
            let mut a = fault_fill(m * k, 3, 0);
            for i in 0..m {
                a[i * k + 1] = 0.0;
                a[i * k + 6] = -0.0;
            }
            let mut b = fault_fill(k * n, 4, 0);
            for j in 0..n {
                b[n + j] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
                b[6 * n + j] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j % 3];
            }
            let c = fault_fill(m * n, 5, 0);
            check_builds(&a, &b, &c, k, n).unwrap();
            let mut out = c.clone();
            accumulate_band(&a, &b, &mut out, 0, k, n, n, 0);
            assert!(out.iter().all(|v| v.is_finite()), "a zero coefficient multiplied a non-finite B");
        }

        proptest::proptest! {
            #[test]
            fn dispatched_builds_match_baseline_on_random_shapes(
                m in 1usize..10,
                k in 1usize..80,
                n in 1usize..140,
                seed in proptest::arbitrary::any::<u64>(),
                per_mille in 0u64..200,
            ) {
                let a = fault_fill(m * k, seed, per_mille);
                let b = fault_fill(k * n, seed ^ 0x9e37_79b9, per_mille);
                let c = fault_fill(m * n, seed ^ 0x85eb_ca6b, per_mille);
                let checked = check_builds(&a, &b, &c, k, n);
                proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
        }
    }

    #[test]
    fn wide_short_product_accumulates_into_existing_values() {
        let a = arange(&[2, 4]);
        let b = arange(&[4, 4200]);
        let mut c = Tensor::ones(&[2, 4200]);
        matmul_into(&a, &b, &mut c);
        let mut expect = naive_matmul(&a, &b);
        for v in expect.data_mut() {
            *v += 1.0;
        }
        assert!(c.approx_eq(&expect, 1e-3));
    }
}
