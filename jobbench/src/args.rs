//! Command-line parsing.

use crate::workloads::Workload;

pub const USAGE: &str = "usage: dlb-jobbench --workload <mm_shared|sor_wide|lu_faulty> \
                         --seed <u64> --seconds <secs> --trace <0|1>\n       \
                         dlb-jobbench --emit-spec";

/// What the command was asked to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Measure one workload and print its report.
    Run(Options),
    /// Print the `BENCHMARK.json` the metric tables define.
    EmitSpec,
}

/// A checked run request.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop, in host seconds (> 0).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parse `args` (without the program name). Every run flag is required
/// exactly once.
pub fn parse<I, S>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_string()).collect();
    if args == ["--emit-spec"] {
        return Ok(Command::EmitSpec);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let fresh = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
                .is_none(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
                .is_none(),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds.replace(s).is_none()
            }
            "--trace" => trace
                .replace(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
                .is_none(),
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if !fresh {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &str) -> Result<Command, String> {
        parse(args.split_whitespace())
    }

    #[test]
    fn parses_a_run_invocation_in_any_order() {
        let want = Command::Run(Options {
            workload: Workload::SorWide,
            seed: 18446744073709551615,
            seconds: 10.0,
            trace: true,
        });
        assert_eq!(
            run("--workload sor_wide --seed 18446744073709551615 --seconds 10 --trace 1"),
            Ok(want.clone())
        );
        assert_eq!(
            run("--trace 1 --seconds 10 --seed 18446744073709551615 --workload sor_wide"),
            Ok(want)
        );
        assert_eq!(run("--emit-spec"), Ok(Command::EmitSpec));
    }

    #[test]
    fn seed_must_be_an_unsigned_64_bit_integer() {
        for bad in ["-1", "1.5", "0x10", "", "18446744073709551616", "seven"] {
            let args = [
                "--workload",
                "mm_shared",
                "--seed",
                bad,
                "--seconds",
                "1",
                "--trace",
                "0",
            ];
            assert!(parse(args).is_err(), "accepted seed {bad:?}");
        }
        let ok = run("--workload mm_shared --seed 0 --seconds 1 --trace 0").unwrap();
        assert!(matches!(ok, Command::Run(Options { seed: 0, .. })));
    }

    #[test]
    fn rejects_missing_repeated_and_invalid_flags() {
        for bad in [
            "",
            "--workload mm_shared --seed 1 --seconds 1",
            "--workload mm_shared --seed 1 --seconds 1 --trace 0 --seed 2",
            "--workload mm --seed 1 --seconds 1 --trace 0",
            "--workload mm_shared --seed 1 --seconds 0 --trace 0",
            "--workload mm_shared --seed 1 --seconds inf --trace 0",
            "--workload mm_shared --seed 1 --seconds 1 --trace 2",
            "--workload mm_shared --seed 1 --seconds 1 --trace",
            "--workload mm_shared --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(run(bad).is_err(), "accepted {bad:?}");
        }
    }
}
