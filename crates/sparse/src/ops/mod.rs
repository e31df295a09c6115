//! Sparse kernels: row-wise SpGEMM, dataflow cost model, transposition, similarity products.

pub mod block;
pub mod elementwise;
pub mod similarity;
pub mod spgemm;
pub mod transpose;

pub use block::{block_spgemm, BlockSparseMatrix};
pub use elementwise::{add_scaled, frobenius_norm, scale, spmm};
pub use similarity::{
    par_similarity_matrix, par_similarity_matrix_csc, similarity_matrix, similarity_matrix_csc,
};
pub use spgemm::{dataflow_costs, par_spgemm, spgemm, spgemm_flops, DataflowCost};
