//! Classification metrics.

/// Confusion matrix: `m[actual][predicted]`.
pub fn confusion_matrix(actual: &[usize], predicted: &[usize], classes: usize) -> Vec<Vec<usize>> {
    assert_eq!(actual.len(), predicted.len());
    let mut m = vec![vec![0usize; classes]; classes];
    for (&a, &p) in actual.iter().zip(predicted) {
        assert!(a < classes && p < classes, "label out of range");
        m[a][p] += 1;
    }
    m
}

/// Overall accuracy.
pub fn accuracy(actual: &[usize], predicted: &[usize]) -> f64 {
    assert_eq!(actual.len(), predicted.len());
    if actual.is_empty() {
        return 0.0;
    }
    actual
        .iter()
        .zip(predicted)
        .filter(|(a, p)| a == p)
        .count() as f64
        / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts_cells() {
        let m = confusion_matrix(&[0, 0, 1, 1, 2], &[0, 1, 1, 1, 0], 3);
        assert_eq!(m[0][0], 1);
        assert_eq!(m[0][1], 1);
        assert_eq!(m[1][1], 2);
        assert_eq!(m[2][0], 1);
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 1, 2], &[2, 1, 0]), 1.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        // A predictor collapsed onto one class of balanced data.
        assert_eq!(accuracy(&[0, 0, 1, 1], &[0, 0, 0, 0]), 0.5);
    }
}
