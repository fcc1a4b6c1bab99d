//! Thread allocation for the real mini-app (§5's generality claim).
//!
//! The same proportional-to-predicted-time allocation that Algorithm 1
//! performs on a 2-D processor grid, specialised to a 1-D pool of worker
//! threads for [`nestwx_miniwrf::runtime`].

/// Splits `total_threads` among nests proportionally to predicted relative
/// execution times; every nest gets at least one thread. Uses largest
/// remainders for the leftover threads.
pub fn thread_allocation(ratios: &[f64], total_threads: usize) -> Vec<usize> {
    assert!(!ratios.is_empty());
    assert!(
        total_threads >= ratios.len(),
        "at least one thread per nest"
    );
    let total: f64 = ratios.iter().sum();
    let ideal: Vec<f64> = ratios
        .iter()
        .map(|r| r / total * total_threads as f64)
        .collect();
    let mut alloc: Vec<usize> = ideal.iter().map(|t| (t.floor() as usize).max(1)).collect();
    let mut assigned: usize = alloc.iter().sum();
    let mut order: Vec<usize> = (0..ratios.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.total_cmp(&fa)
    });
    let mut i = 0;
    while assigned < total_threads {
        alloc[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > total_threads {
        let widest = (0..alloc.len()).max_by_key(|&j| alloc[j]).unwrap();
        assert!(alloc[widest] > 1, "cannot satisfy one-thread minimum");
        alloc[widest] -= 1;
        assigned -= 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_ratios_equal_threads() {
        assert_eq!(thread_allocation(&[1.0, 1.0], 8), vec![4, 4]);
        assert_eq!(
            thread_allocation(&[1.0, 1.0, 1.0, 1.0], 8),
            vec![2, 2, 2, 2]
        );
    }

    #[test]
    fn proportional_split() {
        assert_eq!(thread_allocation(&[3.0, 1.0], 8), vec![6, 2]);
        assert_eq!(thread_allocation(&[0.5, 0.25, 0.25], 8), vec![4, 2, 2]);
    }

    #[test]
    fn minimum_one_thread() {
        let a = thread_allocation(&[0.97, 0.01, 0.01, 0.01], 6);
        assert!(a.iter().all(|&t| t >= 1));
        assert_eq!(a.iter().sum::<usize>(), 6);
    }

    #[test]
    fn sums_to_total() {
        for total in [3, 5, 9, 17] {
            let a = thread_allocation(&[0.2, 0.5, 0.3], total);
            assert_eq!(a.iter().sum::<usize>(), total);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_too_few_threads() {
        thread_allocation(&[1.0, 1.0, 1.0], 2);
    }
}
