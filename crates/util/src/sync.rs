//! The workspace's synchronisation façade.
//!
//! Every crate that spawns threads or shares state across them imports
//! its primitives from here instead of `std::sync`/`std::thread`
//! (enforced by `cargo xtask lint`), so the engine's cross-thread surface
//! is one short list: the materialisation sweep's block counter and its
//! scoped workers (`crpq_graph::rpq`, see `CONCURRENCY.md`). The module
//! is a zero-cost verbatim re-export of `std`; the
//! `facade_is_zero_cost_std` test pins it to *type identity*.

pub mod atomic {
    //! Re-export of the `std::sync::atomic` subset the workspace uses.
    pub use std::sync::atomic::{AtomicUsize, Ordering};
}

pub mod thread {
    //! Re-export of the `std::thread` subset the workspace uses.
    pub use std::thread::{available_parallelism, scope};
}

#[cfg(test)]
mod tests {
    use std::any::TypeId;

    /// The façade must be the *same types* as `std`'s — zero cost by
    /// construction, not merely API-compatible.
    #[test]
    fn facade_is_zero_cost_std() {
        assert_eq!(
            TypeId::of::<super::atomic::AtomicUsize>(),
            TypeId::of::<std::sync::atomic::AtomicUsize>()
        );
        assert_eq!(
            TypeId::of::<super::atomic::Ordering>(),
            TypeId::of::<std::sync::atomic::Ordering>()
        );
    }
}
