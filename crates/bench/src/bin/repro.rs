//! Prints the paper's tables and figures from the experiment registry:
//!
//! ```text
//! repro NAME... | all [--configs N] [--trace-out PATH]
//! ```
//!
//! `all` prints every experiment in registry order; a usage error exits 2.
//! That includes a flag no picked experiment reads: `--configs` needs a
//! sampled sweep among them, `--trace-out` exactly one tracing experiment.

use nestwx_bench::{Experiment, Opts, EXPERIMENTS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "error: {msg}\nusage: repro NAME... | all [--configs N] [--trace-out PATH]\n\
         experiments: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Opts::default();
    let mut picked: Vec<&Experiment> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--configs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.configs = Some(n),
                _ => return usage("--configs needs a positive integer"),
            },
            "--trace-out" => match args.next() {
                Some(path) => opts.trace_out = Some(path.into()),
                None => return usage("--trace-out needs a path"),
            },
            "all" => picked.extend(EXPERIMENTS),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => picked.push(e),
                None => return usage(&format!("unknown experiment {name:?}")),
            },
        }
    }
    if picked.is_empty() {
        return usage("name an experiment, or all");
    }
    // The experiments a flag applies to, for its usage error.
    let names = |applies: fn(&Experiment) -> bool| {
        let names: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| applies(e))
            .map(|e| e.name)
            .collect();
        names.join(", ")
    };
    // One trace file per run: several tracing experiments would overwrite it.
    if opts.trace_out.is_some() && !(picked.len() == 1 && picked[0].traces) {
        let traced = names(|e| e.traces);
        return usage(&format!("--trace-out takes exactly one of {traced}"));
    }
    if opts.configs.is_some() && !picked.iter().any(|e| e.samples) {
        let sampled = names(|e| e.samples);
        return usage(&format!("--configs needs at least one of {sampled}"));
    }
    for e in picked {
        print!("{}", (e.run)(&opts));
    }
    ExitCode::SUCCESS
}
