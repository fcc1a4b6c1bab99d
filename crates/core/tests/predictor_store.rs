//! `PredictorStore`: one fit per machine, bounded, and invisible in the
//! plan bytes. Every test but the first builds its own store, so tests
//! running in parallel never share counters.

use nestwx_core::vocab::parse_machine;
use nestwx_core::{
    fit_predictor, ExecutionPlan, MappingKind, PredictorStore, Scenario, PROFILE_SEED,
};
use nestwx_grid::{Domain, DomainFeatures, NestSpec};
use nestwx_netsim::Machine;
use nestwx_predict::ExecTimePredictor;
use std::sync::{Arc, Barrier};

fn nests(n: usize) -> Vec<NestSpec> {
    [
        NestSpec::new(232, 202, 3, (10, 10)),
        NestSpec::new(313, 337, 3, (120, 130)),
        NestSpec::new(178, 202, 3, (200, 10)),
        NestSpec::new(150, 240, 3, (10, 200)),
    ]
    .into_iter()
    .take(n)
    .collect()
}

fn features() -> Vec<DomainFeatures> {
    nests(4).iter().map(DomainFeatures::from).collect()
}

fn ratio_bits(p: &ExecTimePredictor) -> Vec<u64> {
    let times = p
        .relative_times(&features())
        .expect("features inside the basis");
    times.into_iter().map(f64::to_bits).collect()
}

fn assert_same_plan(a: &ExecutionPlan, b: &ExecutionPlan, what: &str) {
    let bits = |p: &ExecutionPlan| -> Vec<u64> {
        p.predicted_ratios.iter().map(|r| r.to_bits()).collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: predicted ratios");
    assert_eq!(a.partitions, b.partitions, "{what}: partitions");
    assert_eq!(a.mapping, b.mapping, "{what}: mapping");
}

#[test]
fn plans_through_a_store_are_bitwise_the_plans_of_a_fresh_fit() {
    let machines: Vec<Machine> = ["bgl:64", "bgl:256", "bgl:1024", "bgp:256"]
        .iter()
        .map(|spec| parse_machine(spec).expect("preset"))
        .collect();
    for machine in &machines {
        let reference = Arc::new(fit_predictor(machine, PROFILE_SEED));
        for mapping in MappingKind::ALL {
            for n in 2..=4 {
                let mut s =
                    Scenario::new(machine.clone(), Domain::parent(286, 307, 24.0), nests(n));
                s.mapping = mapping;
                let what = format!("{} {mapping:?} {n} nests", machine.name);
                let stored = s
                    .planner()
                    .plan(&s.parent, &s.nests)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let direct = s
                    .planner()
                    .with_predictor(Arc::clone(&reference))
                    .plan(&s.parent, &s.nests)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_same_plan(&stored, &direct, &what);
            }
        }
    }

    // A capacity-1 store alternated between two machines refits on every
    // call; the refitted predictor still plans the same bytes.
    let store = PredictorStore::new(1);
    for round in 0..3 {
        for machine in &machines[..2] {
            let s = Scenario::new(machine.clone(), Domain::parent(286, 307, 24.0), nests(3));
            let refitted = store.get(machine).expect("fits");
            let stored = s
                .planner()
                .with_predictor(refitted)
                .plan(&s.parent, &s.nests)
                .expect("plans");
            let direct = s
                .planner()
                .with_predictor(fit_predictor(machine, PROFILE_SEED))
                .plan(&s.parent, &s.nests)
                .expect("plans");
            assert_same_plan(&stored, &direct, &format!("{} round {round}", machine.name));
        }
    }
    assert_eq!((store.fits(), store.hits(), store.evictions()), (6, 0, 5));
}

#[test]
fn one_fit_per_machine_and_the_least_recently_used_is_the_victim() {
    let [a, b, c, d] = [64, 128, 256, 512].map(Machine::bgl);
    let store = PredictorStore::new(3);
    assert!(store.is_empty());
    for i in 0..300 {
        store.get([&a, &b, &c][i % 3]).expect("fits");
    }
    assert_eq!((store.fits(), store.hits()), (3, 297));
    assert_eq!((store.len(), store.evictions()), (3, 0));

    // Touch order a, b, c: `d` arriving at capacity evicts `a`.
    for m in [&a, &b, &c, &d] {
        store.get(m).expect("fits");
    }
    assert_eq!((store.len(), store.fits(), store.evictions()), (3, 4, 1));
    for m in [&b, &c, &d] {
        store.get(m).expect("fits");
    }
    assert_eq!(store.fits(), 4, "b, c and d stayed");
    store.get(&a).expect("fits");
    assert_eq!((store.len(), store.fits(), store.evictions()), (3, 5, 2));

    let clamped = PredictorStore::new(0);
    clamped.get(&a).expect("fits");
    clamped.get(&a).expect("fits");
    assert_eq!((clamped.len(), clamped.fits(), clamped.hits()), (1, 1, 1));
}

#[test]
fn machines_differing_in_one_constant_do_not_alias() {
    let base = Machine::bgl(256);
    let mut slow_links = base.clone();
    slow_links.net.link_bw /= 4.0;
    assert_eq!(base.name, slow_links.name);

    let store = PredictorStore::new(4);
    let p_base = store.get(&base).expect("fits");
    let p_slow = store.get(&slow_links).expect("fits");
    assert_eq!((store.len(), store.fits()), (2, 2));
    let f = DomainFeatures::from_dims(300, 320);
    assert_ne!(
        p_base.predict(&f).expect("inside the basis").to_bits(),
        p_slow.predict(&f).expect("inside the basis").to_bits(),
        "a quarter of the link bandwidth must change the predicted time"
    );
    assert!(Arc::ptr_eq(&p_base, &store.get(&base).expect("hit")));
}

#[test]
fn racing_gets_on_a_full_store_never_exceed_capacity_or_tear_a_predictor() {
    const THREADS: usize = 8;
    const CALLS: usize = 12;
    let machines = [Machine::bgl(64), Machine::bgp(64)];
    let expected: Vec<Vec<u64>> = machines
        .iter()
        .map(|m| ratio_bits(&fit_predictor(m, PROFILE_SEED)))
        .collect();
    let store = PredictorStore::new(1);
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, start, machines, expected) = (&store, &start, &machines, &expected);
            scope.spawn(move || {
                start.wait();
                for call in 0..CALLS {
                    let which = (t + call) % 2;
                    let p = store.get(&machines[which]).expect("fits");
                    assert!(store.len() <= 1, "capacity bound holds at every instant");
                    assert_eq!(ratio_bits(&p), expected[which], "thread {t} call {call}");
                }
            });
        }
    });
    assert_eq!(store.fits() + store.hits(), (THREADS * CALLS) as u64);
    assert_eq!(store.evictions(), store.fits() - 1);
    assert_eq!(store.len(), 1);
}
