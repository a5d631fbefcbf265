//! Command-line entry point; see the library docs.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match ftbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ftbench: {e}\n{}", ftbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("ftbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = ftbench::workloads::check_environment(&root) {
        eprintln!("ftbench: {e}");
        return ExitCode::from(2);
    }
    let (detail, result) = ftbench::run(&root, &args);
    println!("{detail}");
    println!("{result}");
    ExitCode::SUCCESS
}
