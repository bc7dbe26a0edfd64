//! `itg-partition-worker`: one process of a cluster partition fleet.
//! Spawned by the coordinator to dial back into its listen socket
//! (`--connect <uri>`), or started by hand with `--listen <uri>` for a
//! coordinator to dial (`ClusterSpec::endpoints`); exactly one of the two.
//! All protocol logic lives in `itg_engine::worker`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match itg_engine::worker::worker_main_with_args(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("itg-partition-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
