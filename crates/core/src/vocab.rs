//! The scenario vocabulary: the one text form of the paper's inputs.
//!
//! A [`Scenario`](crate::Scenario) is machine, parent domain, sibling
//! nests, execution strategy, allocation policy, torus mapping and output
//! mode. Every front end — `nestwx plan|compare|fleet` argv, the sweep
//! spec's JSON lists, the serve wire's JSON objects — reads and prints
//! those parts through this module and keeps only its own carrier and
//! error wrapper, so a token means the same thing everywhere (the disk
//! plan cache shared by sweep and serve rests on that).
//!
//! | part     | text form                                  |
//! |----------|--------------------------------------------|
//! | machine  | `FAMILY:CORES`, e.g. `bgl:1024`            |
//! | parent   | `NXxNY@DX_KM`, e.g. `286x307@24`           |
//! | nest     | `NXxNYrR@OX,OY[:in=K]`                     |
//! | strategy | `sequential\|concurrent`                   |
//! | alloc    | `equal\|naive\|huffman`                    |
//! | mapping  | `oblivious\|txyz\|partition\|multilevel`   |
//! | io       | `none\|pnetcdf:N\|split:N`                 |
//!
//! The `token()` matches are exhaustive with no wildcard arm: a new enum
//! variant does not compile until it has a token. Parsing is a `match` on
//! `&str` and allocates only to build an error message.

use crate::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::{IoMode, Machine};
use std::fmt;
use std::str::FromStr;

/// A piece of scenario text that is not in the vocabulary; carries the
/// user-facing message each front end wraps in its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabError(pub String);

impl fmt::Display for VocabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VocabError {}

/// Lets `?` hand the message to callers whose error type is a `String`.
impl From<VocabError> for String {
    fn from(e: VocabError) -> String {
        e.0
    }
}

fn unknown(what: &str, got: &str, expected: &[&str]) -> VocabError {
    VocabError(format!("unknown {what} '{got}' ({})", expected.join("|")))
}

impl Strategy {
    /// Both strategies, default (WRF) first.
    pub const ALL: [Strategy; 2] = [Strategy::Sequential, Strategy::Concurrent];

    /// The strategy's token.
    pub fn token(self) -> &'static str {
        match self {
            Strategy::Sequential => "sequential",
            Strategy::Concurrent => "concurrent",
        }
    }
}

impl FromStr for Strategy {
    type Err = VocabError;

    fn from_str(s: &str) -> Result<Strategy, VocabError> {
        match s {
            "sequential" => Ok(Strategy::Sequential),
            "concurrent" => Ok(Strategy::Concurrent),
            other => Err(unknown(
                "strategy",
                other,
                &Strategy::ALL.map(Strategy::token),
            )),
        }
    }
}

impl AllocPolicy {
    /// All allocation policies, strawman first.
    pub const ALL: [AllocPolicy; 3] = [
        AllocPolicy::Equal,
        AllocPolicy::NaiveProportional,
        AllocPolicy::HuffmanSplitTree,
    ];

    /// The policy's token.
    pub fn token(self) -> &'static str {
        match self {
            AllocPolicy::Equal => "equal",
            AllocPolicy::NaiveProportional => "naive",
            AllocPolicy::HuffmanSplitTree => "huffman",
        }
    }
}

impl FromStr for AllocPolicy {
    type Err = VocabError;

    fn from_str(s: &str) -> Result<AllocPolicy, VocabError> {
        match s {
            "equal" => Ok(AllocPolicy::Equal),
            "naive" => Ok(AllocPolicy::NaiveProportional),
            "huffman" => Ok(AllocPolicy::HuffmanSplitTree),
            other => Err(unknown(
                "allocation policy",
                other,
                &AllocPolicy::ALL.map(AllocPolicy::token),
            )),
        }
    }
}

impl MappingKind {
    /// The mapping's token.
    pub fn token(self) -> &'static str {
        match self {
            MappingKind::Oblivious => "oblivious",
            MappingKind::Txyz => "txyz",
            MappingKind::Partition => "partition",
            MappingKind::MultiLevel => "multilevel",
        }
    }
}

impl FromStr for MappingKind {
    type Err = VocabError;

    fn from_str(s: &str) -> Result<MappingKind, VocabError> {
        match s {
            "oblivious" => Ok(MappingKind::Oblivious),
            "txyz" => Ok(MappingKind::Txyz),
            "partition" => Ok(MappingKind::Partition),
            "multilevel" => Ok(MappingKind::MultiLevel),
            other => Err(unknown(
                "mapping",
                other,
                &MappingKind::ALL.map(MappingKind::token),
            )),
        }
    }
}

/// All output modes, `none` first.
pub const IO_MODES: [IoMode; 3] = [IoMode::None, IoMode::PnetCdf, IoMode::SplitFiles];

/// The output mode's token (the part of an io token before `:N`).
pub fn io_mode_token(mode: IoMode) -> &'static str {
    match mode {
        IoMode::None => "none",
        IoMode::PnetCdf => "pnetcdf",
        IoMode::SplitFiles => "split",
    }
}

/// Parses an output-mode token.
pub fn parse_io_mode(s: &str) -> Result<IoMode, VocabError> {
    match s {
        "none" => Ok(IoMode::None),
        "pnetcdf" => Ok(IoMode::PnetCdf),
        "split" => Ok(IoMode::SplitFiles),
        other => Err(unknown("io mode", other, &IO_MODES.map(io_mode_token))),
    }
}

/// Parses `none`, `pnetcdf:N` or `split:N` (history output every `N ≥ 1`
/// parent iterations) into [`Scenario`](crate::Scenario)'s `io_mode` and
/// `output_interval`.
pub fn parse_io(s: &str) -> Result<(IoMode, Option<u32>), VocabError> {
    if s == io_mode_token(IoMode::None) {
        return Ok((IoMode::None, None));
    }
    let (mode, every) = s
        .split_once(':')
        .ok_or_else(|| VocabError(format!("io '{s}': expected none|pnetcdf:N|split:N")))?;
    let every: u32 = every
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| VocabError(format!("io '{s}': interval must be an integer >= 1")))?;
    match parse_io_mode(mode)? {
        IoMode::None => Err(VocabError(format!("io '{s}': none takes no interval"))),
        mode => Ok((mode, Some(every))),
    }
}

/// Largest core count a machine token may name — one request or argv must
/// not make the process build an absurd torus.
pub(crate) const MAX_CORES: u32 = 65_536;

/// One `FAMILY` of the `FAMILY:CORES` machine token.
pub struct MachinePreset {
    /// The family token.
    pub family: &'static str,
    /// Smallest partition of this family (cores, a power of two).
    pub(crate) min_cores: u32,
    /// One-line description for help output.
    pub about: &'static str,
    build: fn(u32) -> Machine,
}

impl MachinePreset {
    /// The tokens this family takes, as `bgl:16..65536`.
    pub fn range(&self) -> String {
        format!("{}:{}..{MAX_CORES}", self.family, self.min_cores)
    }
}

/// The machine families a token may name.
pub const MACHINE_PRESETS: [MachinePreset; 2] = [
    MachinePreset {
        family: "bgl",
        min_cores: 16,
        about: "IBM Blue Gene/L, virtual-node mode, 8x8x8-midplane torus",
        build: Machine::bgl,
    },
    MachinePreset {
        family: "bgp",
        min_cores: 64,
        about: "IBM Blue Gene/P, virtual-node mode, rack-stacked torus",
        build: Machine::bgp,
    },
];

/// Parses `FAMILY:CORES` (`bgl:1024`, `bgp:4096`) into the machine model:
/// a power-of-two core count between the family's minimum and
/// `MAX_CORES`.
pub fn parse_machine(s: &str) -> Result<Machine, VocabError> {
    let (family, cores) = s
        .split_once(':')
        .ok_or_else(|| VocabError(format!("machine '{s}': expected FAMILY:CORES")))?;
    let preset = MACHINE_PRESETS
        .iter()
        .find(|p| p.family == family)
        .ok_or_else(|| {
            unknown(
                "machine family",
                family,
                &MACHINE_PRESETS.each_ref().map(|p| p.family),
            )
        })?;
    let cores: u32 = cores
        .parse()
        .map_err(|_| VocabError(format!("bad core count '{cores}'")))?;
    if !cores.is_power_of_two() {
        return Err(VocabError(format!(
            "core count {cores} must be a power of two"
        )));
    }
    if cores < preset.min_cores || cores > MAX_CORES {
        return Err(VocabError(format!(
            "machine '{s}': core count outside {}",
            preset.range()
        )));
    }
    Ok((preset.build)(cores))
}

/// A parent domain of `nx × ny` points at `dx_km` resolution; the
/// resolution must be finite and positive (a `nan` or `inf` would encode
/// as `null` in the canonical scenario string).
pub fn parent(nx: u32, ny: u32, dx_km: f64) -> Result<Domain, VocabError> {
    if !(dx_km.is_finite() && dx_km > 0.0) {
        return Err(VocabError(format!(
            "parent resolution {dx_km} must be a positive, finite number of km"
        )));
    }
    Ok(Domain::parent(nx, ny, dx_km))
}

/// Parses `NXxNY@DX_KM`, e.g. `286x307@24`.
pub fn parse_parent(s: &str) -> Result<Domain, VocabError> {
    let bad = || {
        VocabError(format!(
            "parent '{s}': expected NXxNY@DX_KM, e.g. 286x307@24"
        ))
    };
    let (dims, dx) = s.split_once('@').ok_or_else(bad)?;
    let (nx, ny) = dims.split_once('x').ok_or_else(bad)?;
    parent(
        nx.parse().map_err(|_| bad())?,
        ny.parse().map_err(|_| bad())?,
        dx.parse().map_err(|_| bad())?,
    )
}

/// Parses `NXxNYrR@OX,OY` (a level-1 nest) or `NXxNYrR@OX,OY:in=K` (a
/// second-level nest inside nest `K`, 0-based), e.g. `259x229r3@10,12`.
pub fn parse_nest(s: &str) -> Result<NestSpec, VocabError> {
    let bad = || {
        VocabError(format!(
            "nest '{s}': expected NXxNYrR@OX,OY[:in=K], e.g. 150x150r3@10,12"
        ))
    };
    let (body, parent_nest) = match s.split_once(":in=") {
        Some((body, k)) => (body, Some(k.parse().map_err(|_| bad())?)),
        None => (s, None),
    };
    let (dims, offset) = body.split_once('@').ok_or_else(bad)?;
    let (dims, r) = dims.split_once('r').ok_or_else(bad)?;
    let (nx, ny) = dims.split_once('x').ok_or_else(bad)?;
    let (ox, oy) = offset.split_once(',').ok_or_else(bad)?;
    Ok(NestSpec {
        nx: nx.parse().map_err(|_| bad())?,
        ny: ny.parse().map_err(|_| bad())?,
        refine_ratio: r.parse().map_err(|_| bad())?,
        offset: (
            ox.parse().map_err(|_| bad())?,
            oy.parse().map_err(|_| bad())?,
        ),
        parent_nest,
    })
}

/// The nest token [`parse_nest`] reads back.
pub fn nest_token(n: &NestSpec) -> String {
    let level1 = format!(
        "{}x{}r{}@{},{}",
        n.nx, n.ny, n.refine_ratio, n.offset.0, n.offset.1
    );
    match n.parent_nest {
        Some(k) => format!("{level1}:in={k}"),
        None => level1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop_assert_eq, proptest};

    #[test]
    fn every_token_parses_back_to_its_variant() {
        for s in Strategy::ALL {
            assert_eq!(s.token().parse(), Ok(s));
        }
        for a in AllocPolicy::ALL {
            assert_eq!(a.token().parse(), Ok(a));
        }
        for m in MappingKind::ALL {
            assert_eq!(m.token().parse(), Ok(m));
        }
        for io in IO_MODES {
            assert_eq!(parse_io_mode(io_mode_token(io)), Ok(io));
        }
        let e = "spiral".parse::<MappingKind>().unwrap_err();
        assert_eq!(
            e.0,
            "unknown mapping 'spiral' (oblivious|txyz|partition|multilevel)"
        );
    }

    #[test]
    fn io_tokens() {
        assert_eq!(parse_io("none"), Ok((IoMode::None, None)));
        assert_eq!(parse_io("pnetcdf:5"), Ok((IoMode::PnetCdf, Some(5))));
        assert_eq!(parse_io("split:2"), Ok((IoMode::SplitFiles, Some(2))));
        for bad in ["pnetcdf", "pnetcdf:0", "pnetcdf:x", "none:2", "hdf5:2", ""] {
            assert!(parse_io(bad).is_err(), "accepted io '{bad}'");
        }
    }

    #[test]
    fn machine_tokens() {
        assert_eq!(parse_machine("bgl:1024"), Ok(Machine::bgl(1024)));
        assert_eq!(parse_machine("bgp:4096"), Ok(Machine::bgp(4096)));
        assert_eq!(parse_machine("bgl:65536").map(|m| m.ranks()), Ok(MAX_CORES));
        for bad in [
            "bgq:1024",
            "bgl:1000",
            "bgl:63",
            "bgl:8",
            "bgp:32",
            "bgl",
            "bgl:",
            "bgl:131072",
            "bgl:67108864",
        ] {
            assert!(parse_machine(bad).is_err(), "accepted machine '{bad}'");
        }
    }

    #[test]
    fn parent_tokens() {
        assert_eq!(
            parse_parent("286x307@24"),
            Ok(Domain::parent(286, 307, 24.0))
        );
        assert_eq!(parse_parent("100x90@4.5"), Ok(Domain::parent(100, 90, 4.5)));
        for bad in [
            "286x307",
            "286@24",
            "286x307@",
            "ax307@24",
            "286x307@nan",
            "286x307@inf",
            "286x307@-inf",
            "286x307@-1",
            "286x307@0",
        ] {
            assert!(parse_parent(bad).is_err(), "accepted parent '{bad}'");
        }
    }

    #[test]
    fn nest_tokens() {
        assert_eq!(
            parse_nest("259x229r3@10,12"),
            Ok(NestSpec::new(259, 229, 3, (10, 12)))
        );
        assert_eq!(parse_nest("90x90r3@5,6:in=0").unwrap().parent_nest, Some(0));
        for bad in [
            "259x229@10,12",
            "259x229r3@10",
            "259x229r3",
            "259r3@10,12",
            "259x229r3@10,12:in=",
            "259x229r3@10,12:in=-1",
        ] {
            assert!(parse_nest(bad).is_err(), "accepted nest '{bad}'");
        }
    }

    proptest! {
        #[test]
        fn nest_token_round_trips(
            dims in (0u32..5000, 0u32..5000),
            r in 0u32..9,
            offset in (0u32..2000, 0u32..2000),
            parent_nest in (any::<bool>(), 0usize..8),
        ) {
            let nest = NestSpec {
                nx: dims.0,
                ny: dims.1,
                refine_ratio: r,
                offset,
                parent_nest: parent_nest.0.then_some(parent_nest.1),
            };
            prop_assert_eq!(parse_nest(&nest_token(&nest)), Ok(nest));
        }

        #[test]
        fn parent_and_machine_tokens_round_trip(
            dims in (0u32..5000, 0u32..5000),
            dx in 0.01f64..500.0,
            preset in 0usize..MACHINE_PRESETS.len(),
            pow in 6u32..=16,
        ) {
            // `{}` prints the shortest digits that read back to the same f64.
            let parent = parse_parent(&format!("{}x{}@{dx}", dims.0, dims.1));
            prop_assert_eq!(parent, Ok(Domain::parent(dims.0, dims.1, dx)));
            let preset = &MACHINE_PRESETS[preset];
            let machine = parse_machine(&format!("{}:{}", preset.family, 1u32 << pow));
            prop_assert_eq!(machine, Ok((preset.build)(1 << pow)));
        }

        #[test]
        fn io_token_round_trips(mode in 1usize..IO_MODES.len(), every in 1u32..10_000) {
            let mode = IO_MODES[mode];
            let token = format!("{}:{every}", io_mode_token(mode));
            prop_assert_eq!(parse_io(&token), Ok((mode, Some(every))));
        }
    }
}
