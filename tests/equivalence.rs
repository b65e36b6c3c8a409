//! The equivalence matrix (`tests/common/mod.rs`): data-parallel training
//! reproduces its reference run bit for bit in every cell of workers ×
//! codec × fusion × dispatch × prefetch × fault × model, or refuses the
//! resume with a typed error where the snapshot cannot hold the state.
//!
//! ```text
//! cargo test --test equivalence                              # seeded sample
//! cargo test --release --test equivalence -- --ignored --nocapture  # every cell
//! ```

mod common;

use common::*;
use msa_suite::msa_core::XorShift;

/// A seeded tenth of the product.
#[test]
fn sampled_cells_hold() {
    let (cells, mut rng) = (cells(), XorShift(0xCE11_5EED));
    for _ in 0..cells.len() / 10 {
        check(&cells[rng.next_u64() as usize % cells.len()]);
    }
}

#[test]
#[ignore = "the whole product; CI runs it in release"]
fn all_cells_hold() {
    let cells = cells();
    cells.iter().for_each(check);
    println!("{} cells hold", cells.len());
}
