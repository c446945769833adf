//! `perfbench --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload and prints its result as the last line of stdout.

use std::process::ExitCode;

use square_perfbench::common::{Args, USAGE};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match square_perfbench::run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
