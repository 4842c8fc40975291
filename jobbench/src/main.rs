//! `dlb-jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end table, or with `--trace 1` the per-layer
//! table). `--emit-spec` prints the `BENCHMARK.json` the tables define.

use dlb_jobbench::args::{parse, Command, USAGE};
use dlb_jobbench::report::{result_json, spec_json, table};
use dlb_jobbench::run::run;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::EmitSpec) => {
            print!("{}", spec_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("dlb-jobbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    for line in &out.notes {
        println!("{line}");
    }
    match result_json(
        out.failed == 0,
        out.attempted,
        out.failed,
        &out.metrics,
        table(opts.trace),
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dlb-jobbench: no result: {e}");
            ExitCode::FAILURE
        }
    }
}
