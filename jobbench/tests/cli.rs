//! The command-line interface, exercised through the built binary.

use dlb_jobbench::report::{END_TO_END, PER_LAYER};
use std::process::Command;

fn bench(args: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dlb-jobbench"))
        .args(args.split_whitespace())
        .output()
        .expect("the benchmark binary starts")
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload sor_wide --seed -3 --seconds 1 --trace 0",
        "--workload nope --seed 3 --seconds 1 --trace 0",
        "--workload sor_wide --seed 3 --seconds 1",
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A short real run of each kind ends with the result line naming every
/// metric of its table. Release builds only: a debug build of the
/// simulator is too slow for sixteen 256-slave jobs.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn short_runs_report_every_metric() {
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let out = bench(&format!(
            "--workload sor_wide --seed 5 --seconds 0.1 --trace {trace}"
        ));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        for m in table {
            let entry = format!("\"{}\": {{\"value\": ", m.name);
            assert!(last.contains(&entry), "trace {trace}: {} missing", m.name);
            // Printed by name and unit above the result line, too.
            assert!(stdout.contains(&format!("\n{} = ", m.name)), "{}", m.name);
        }
        if trace == "0" {
            assert!(stdout.contains("\nerror_rate = 0 ratio"), "{stdout}");
        }
    }
}
