//! §3.1 — Performance-prediction accuracy: Delaunay interpolation vs the
//! naïve points-proportional model.
//!
//! Paper claims: interpolation error < 6 % on test domains (55 900–94 990
//! points, aspect 0.5–1.5); naïve model errs > 19 %.

use crate::{banner, max, mean, row, Opts};
use nestwx_core::profile::{measure_domain_time, profile_basis, PROFILE_RANKS};
use nestwx_grid::DomainFeatures;
use nestwx_netsim::Machine;
use nestwx_predict::{ExecTimePredictor, NaivePointsModel};

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner("pred", "execution-time prediction accuracy (§3.1)");
    let machine = Machine::bgl(64);
    let basis = profile_basis(&machine, 42);
    let model = ExecTimePredictor::fit(&basis).unwrap();
    let naive = NaivePointsModel::fit(&basis);

    // Test domains in the paper's stated range: 55 900–94 990 points,
    // aspect ratios 0.5–1.5, plus scaled-up versions (out-of-hull).
    let tests: [(u32, u32); 10] = [
        (215, 260),
        (230, 243),
        (310, 215),
        (188, 300),
        (260, 360),
        (205, 410),
        (172, 344),
        (365, 244),
        (240, 240),
        (298, 301),
    ];

    let widths = [11, 10, 12, 12, 12, 12];
    row(
        &mut out,
        &[
            "domain",
            "points",
            "true s",
            "interp s",
            "err%",
            "naive err%",
        ],
        &widths,
    );
    let mut interp_errs = Vec::new();
    let mut naive_errs = Vec::new();
    for (nx, ny) in tests {
        let truth = measure_domain_time(&machine, nx, ny, PROFILE_RANKS);
        let f = DomainFeatures::from_dims(nx, ny);
        let pred = model.predict(&f).unwrap();
        let npred = naive.predict(&f);
        let e = (pred - truth).abs() / truth * 100.0;
        let ne = (npred - truth).abs() / truth * 100.0;
        interp_errs.push(e);
        naive_errs.push(ne);
        row(
            &mut out,
            &[
                format!("{nx}x{ny}"),
                (nx as u64 * ny as u64).to_string(),
                format!("{truth:.4}"),
                format!("{pred:.4}"),
                format!("{e:.2}"),
                format!("{ne:.2}"),
            ],
            &widths,
        );
    }
    out += &format!(
        "\ninterpolation: mean {:.2}%  max {:.2}%   (paper: <6% for most configurations)\n",
        mean(&interp_errs),
        max(&interp_errs)
    );
    out += &format!(
        "naive points : mean {:.2}%  max {:.2}%   (paper: >19%)\n",
        mean(&naive_errs),
        max(&naive_errs)
    );
    out
}
