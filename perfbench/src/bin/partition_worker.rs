//! The cluster workload's worker process. `itg-engine` looks for a binary
//! of this name beside the running executable, and this package's build
//! does not produce the engine's own copy, so it is built here from the
//! same public entry point.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match iturbograph::engine::worker::worker_main_with_args(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("itg-partition-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
