//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exits 0 when every output check passed, 1 when one failed, 2 on a bad
//! command line. The last line of standard output is the JSON result.

use std::io::Write;
use std::process::ExitCode;

use cryptodrop_perfbench::{parse_args, run_workload, workloads};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        let outcome = run_workload(name, &args);
        print!("{}", outcome.stdout);
        let _ = std::io::stdout().flush();
        correct &= outcome.correct;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
