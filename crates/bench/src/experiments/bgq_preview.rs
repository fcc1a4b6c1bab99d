//! Extension (§6 future work) — mapping on Blue Gene/Q's 5-D torus.
//!
//! The paper's mapping schemes target the 3-D tori of BG/L and BG/P; §6
//! names the BG/Q 5-D torus as future work. This preview shows that the
//! core claim — contiguous partition placement cuts nest-halo hop counts —
//! carries over: each sibling partition is laid on a contiguous run of a
//! boustrophedon (everywhere-1-hop) walk of the 5-D torus.

use crate::{banner, Opts, TABLE2_PARTS};
use nestwx_grid::ProcGrid;
use nestwx_topo::torus5d::{partition_halo_pairs, Mapping5, Torus5};

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner("bgq", "5-D torus mapping preview (Blue Gene/Q future work)");
    // One BG/Q rack of 1024 nodes (4×4×4×8×2), one rank per node; the
    // Table 2 partition geometry.
    let torus = Torus5::bgq_rack();
    let grid = ProcGrid::new(32, 32);
    let parts = TABLE2_PARTS;
    let nest_edges = partition_halo_pairs(&grid, &parts);
    // Parent edges: all neighbour pairs of the full grid.
    let parent_edges = partition_halo_pairs(&grid, &[grid.rect()]);

    out += &format!(
        "torus: {:?} = {} nodes; virtual grid 32x32\n",
        torus.dims,
        torus.nodes()
    );
    out += &format!(
        "{:<28} {:>12} {:>14}\n",
        "mapping", "nest hops", "parent hops"
    );
    let ob = Mapping5::oblivious(torus, 1024).unwrap();
    let ps = Mapping5::partition_serpentine(torus, &grid, &parts).unwrap();
    let pf = Mapping5::universal_folded(torus, &grid).expect("32x32 factors over 4·4·4·8·2");
    for (name, m) in [
        ("oblivious (ABCDE order)", &ob),
        ("partition serpentine", &ps),
        ("universal folded (AD)x(BCE)", &pf),
    ] {
        out += &format!(
            "{:<28} {:>12.2} {:>14.2}\n",
            name,
            m.avg_hops(&nest_edges),
            m.avg_hops(&parent_edges)
        );
    }
    let red = (1.0 - pf.avg_hops(&nest_edges) / ob.avg_hops(&nest_edges)) * 100.0;
    out += "\nuniversal folded mapping: every nest and parent neighbour is 1 hop —\n";
    out += &format!("{red:.1} % fewer nest-halo hops than oblivious. With five dimensions to\n");
    out += "combine, the 3-D torus's 'non-foldable' problem disappears whenever the\n";
    out += "extents factor (power-of-two BG/Q shapes always do).\n";
    out
}
