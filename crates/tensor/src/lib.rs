//! Dense `f32` tensor substrate for the FT-ClipAct reproduction.
//!
//! This crate provides the numeric foundation on which the rest of the
//! workspace (the CNN engine in `ftclip-nn`, the fault-injection framework in
//! `ftclip-fault` and the FT-ClipAct methodology in `ftclip-core`) is built:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor with an
//!   arbitrary number of dimensions (networks use NCHW).
//! * [`Shape`] — a lightweight dimension list with explicit validation.
//! * [`matmul`], [`matmul_tn`], [`matmul_nt`] — cache-blocked, multi-threaded
//!   matrix products (the only compute-heavy primitives the workspace needs).
//! * [`im2col`]/[`col2im`] — the standard convolution lowering used by
//!   `ftclip-nn`'s `Conv2d` forward and backward passes.
//!
//! # Example
//!
//! ```
//! use ftclip_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! # Design notes
//!
//! * Everything is `f32`: the paper injects bit flips into IEEE-754
//!   single-precision weight words, so the memory representation of
//!   parameters must be exactly `f32`.
//! * The f32 GEMM core behind [`matmul`], [`matmul_tn`] and
//!   [`gemm_accumulate`] is one portable kernel, compiled three times:
//!   baseline x86-64 (SSE2), AVX2 and AVX-512F. The widest build the CPU
//!   supports is picked at runtime; there is no knob. Every build is
//!   bit-identical, because each output element keeps one ascending-`k`
//!   chain of separate multiplies and adds, which Rust never contracts into
//!   FMA. Campaign tables, goldens and store keys do not depend on the ISA.
//! * `unsafe` is denied workspace-wide with two sanctioned islands, both in
//!   this crate and both runtime-dispatched x86-64 code: the `core::arch`
//!   bodies of the int8 kernels (`int8::simd`), and the calls into the
//!   `#[target_feature]` builds of the f32 GEMM core (`matmul::simd`), each
//!   right behind its feature check. Every other crate still forbids it
//!   outright.
//! * Threading uses `std::thread::scope`; no runtime dependency is needed.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod failpoint;
mod im2col;
mod init;
mod int8;
mod matmul;
mod par;
mod shape;
mod tensor;

pub use error::TensorError;
pub use im2col::{
    col2im, conv_output_size, im2col, im2col_batch, im2col_batch_into, im2col_image_overwrite, Conv2dGeometry,
};
pub use init::{he_normal, uniform_init, xavier_uniform};
pub use int8::{
    gemm_i8_accumulate, im2col_i16_pairs_image_overwrite, im2col_i8_image_overwrite, interleave_widen_pairs,
    matmul_i16_pairs_into, matmul_i8_nt_into,
};
pub use matmul::{gemm_accumulate, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn};
pub use par::{num_threads, par_row_bands, with_thread_limit};
pub use shape::Shape;
pub use tensor::Tensor;
