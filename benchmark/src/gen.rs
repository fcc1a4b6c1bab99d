//! Seeded input generation. Every input the benchmark feeds the program
//! comes from a [`Rng`] seeded by `--seed`; the program under test sees
//! only the generated inputs, never the seed.

use nestwx_core::{AllocPolicy, MappingKind, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_serve::{Request, RequestBody, ScenarioParams};

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose, so adding a draw to one
    /// generator never shifts another's inputs.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut r = Rng(seed ^ nestwx_core::fnv1a64(purpose.as_bytes()));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// The paper's parent domain (286 × 307 at 24 km).
pub fn pacific_parent() -> Domain {
    Domain::parent(286, 307, 24.0)
}

/// A refine-3 nest of `nx × ny` placed at a seeded offset that keeps its
/// footprint inside `parent`.
pub fn place_nest(rng: &mut Rng, parent: &Domain, nx: u32, ny: u32) -> NestSpec {
    let (w, h) = (nx.div_ceil(3), ny.div_ceil(3));
    let ox = rng.range(1, parent.nx - w - 1);
    let oy = rng.range(1, parent.ny - h - 1);
    NestSpec::new(nx, ny, 3, (ox, oy))
}

/// A nest inside the paper's profiled ranges (§3.1: 94×124 … 415×445,
/// aspect 0.5–1.5), kept a little inside them so the predictor
/// interpolates rather than extrapolates.
pub fn paper_nest(rng: &mut Rng, parent: &Domain) -> NestSpec {
    let aspect = rng.unit(0.6, 1.4);
    let points = rng.unit(20_000.0, 150_000.0);
    let nx = (points * aspect).sqrt().round() as u32;
    let ny = (points / aspect).sqrt().round() as u32;
    place_nest(rng, parent, nx, ny)
}

/// A `plan` request with the planner's default strategy and allocation
/// (concurrent, Huffman split-tree), so the predictor is always used.
pub fn plan_request(
    id: String,
    machine: &str,
    nests: Vec<NestSpec>,
    mapping: MappingKind,
) -> Request {
    Request::new(
        Some(id),
        RequestBody::Plan(ScenarioParams {
            machine: machine.to_string(),
            parent: pacific_parent(),
            nests,
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping,
            io: None,
        }),
    )
}

/// `n` plan request lines with a fixed composition — `machines` cycled,
/// the four mappings cycled, 2–4 nests cycled — and seeded nest shapes,
/// in seeded order. The composition is fixed so the cost of a batch does
/// not depend on which classes a seed happens to draw.
pub fn stratified_plan_lines(rng: &mut Rng, machines: &[&str], n: usize) -> Vec<String> {
    let parent = pacific_parent();
    let mut lines: Vec<String> = (0..n)
        .map(|i| {
            let machine = machines[i % machines.len()];
            let mapping = MappingKind::ALL[(i / machines.len()) % 4];
            let count = 2 + (i / (machines.len() * 4)) % 3;
            let nests = (0..count).map(|_| paper_nest(rng, &parent)).collect();
            plan_request(format!("p{i}"), machine, nests, mapping).to_json_line()
        })
        .collect();
    rng.shuffle(&mut lines);
    lines
}

/// The `index`-th plan request of a stream in which no two indices below
/// 360 000 share a scenario: the first nest's size and x offset encode
/// the index, everything else is seeded.
pub fn distinct_plan_line(rng: &mut Rng, machines: &[&str], index: u64) -> String {
    let parent = pacific_parent();
    let i = index as u32;
    let (nx, ny) = (200 + i % 150, 200 + (i / 150) % 150);
    let ox = 1 + (i / 22_500) % 16;
    let oy = rng.range(1, parent.ny - ny.div_ceil(3) - 1);
    let nests = vec![NestSpec::new(nx, ny, 3, (ox, oy)), paper_nest(rng, &parent)];
    let machine = machines[index as usize % machines.len()];
    let mapping = MappingKind::ALL[(index as usize / machines.len()) % 4];
    plan_request(format!("c{index}"), machine, nests, mapping).to_json_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let lines = |seed| stratified_plan_lines(&mut Rng::stream(seed, "plan"), &["bgl:64"], 48);
        assert_eq!(lines(1), lines(1));
        let (a, b) = (lines(1), lines(2));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let mut a = Rng::stream(7, "plan");
        let mut b = Rng::stream(7, "serve");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng(3);
        for _ in 0..10_000 {
            assert!((5..=9).contains(&r.range(5, 9)));
            assert!(r.below(3) < 3);
            let u = r.unit(0.6, 1.4);
            assert!((0.6..1.4).contains(&u));
        }
    }

    #[test]
    fn generated_nests_fit_their_parent() {
        let parent = pacific_parent();
        let mut r = Rng(11);
        for _ in 0..2000 {
            let n = paper_nest(&mut r, &parent);
            assert!(parent.rect().contains_rect(&n.footprint_in_parent()));
        }
    }

    #[test]
    fn distinct_lines_never_repeat_a_scenario() {
        let mut r = Rng(5);
        let mut seen = BTreeSet::new();
        for i in 0..50_000u64 {
            let line = distinct_plan_line(&mut r, &["bgl:64", "bgl:128"], i);
            // Strip the id: the scenario itself must be new.
            let (_, params) = line.split_once("\"params\"").unwrap();
            let first_nest = params.split("},{").next().unwrap().to_string();
            assert!(seen.insert(first_nest), "index {i} repeats a first nest");
        }
    }
}
