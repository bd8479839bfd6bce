//! Canonical configurations. The paper's §IV-B defaults themselves are
//! [`SimSpec::paper_defaults`](crate::SimSpec::paper_defaults).

/// The four cells of the paper's evaluation grid as `(k, originator
/// fraction)` pairs: k ∈ {4, 20} × originators ∈ {20%, 100%}.
pub fn paper_grid() -> [(usize, f64); 4] {
    [(4, 0.2), (4, 1.0), (20, 0.2), (20, 1.0)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_axes() {
        let grid = paper_grid();
        assert_eq!(grid.len(), 4);
        assert!(grid.iter().any(|&(k, f)| k == 4 && f == 0.2));
        assert!(grid.iter().any(|&(k, f)| k == 20 && f == 1.0));
    }
}
