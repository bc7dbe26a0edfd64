//! Golden pins of the executable Δ-plan of the six evaluation programs —
//! the text `itg explain` prints under the formal trees
//! (`CompiledProgram::explain_delta_plan`). The plan is what the engine
//! executes, so a change of stream bindings, sub-query order, pruning
//! paths, annotations, lanes or the recompute plan shows up here as a
//! reviewable diff. Regenerate with `ITG_BLESS=1 cargo test -p
//! itg-algorithms --test explain_golden` and review `tests/golden/`.

use itg_algorithms::programs;
use std::path::PathBuf;

#[test]
fn delta_plans_of_the_six_programs_match_their_goldens() {
    let bless = std::env::var_os("ITG_BLESS").is_some();
    for name in programs::ALL {
        let program = itg_compiler::compile_source(&programs::source(name).unwrap()).unwrap();
        let plan = program.explain_delta_plan();
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.plan"));
        if bless {
            std::fs::write(&path, &plan).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} — run with ITG_BLESS=1", path.display()));
        assert!(
            plan == golden,
            "{name}: the Δ-plan moved. If intended, rerun with ITG_BLESS=1 and review \
             the diff of {}.\n--- golden\n{golden}\n--- now\n{plan}",
            path.display()
        );
    }
}
