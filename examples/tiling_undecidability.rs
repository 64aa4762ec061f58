//! The Section 5 construction: piece-wise linearity without wardedness is
//! undecidable. This example builds the reduction for a solvable and an
//! unsolvable tiling system, shows that the generated TGD set is piece-wise
//! linear but *not* warded, and cross-checks a bounded chase against the
//! bounded tiling solver.
//!
//! Run with: `cargo run --example tiling_undecidability`

use vadalog::analysis::pwl::is_piecewise_linear;
use vadalog::analysis::wardedness::check_wardedness;
use vadalog::chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog::tiling::{has_tiling_within, reduction, TilingSystem};

fn main() {
    for (name, system) in [
        ("solvable corridor", TilingSystem::solvable_example()),
        ("unsolvable corridor", TilingSystem::unsolvable_example()),
    ] {
        println!("== {name} ==");
        let red = reduction(&system);

        // The fixed TGD set Σ of the reduction is PWL but not warded — the
        // combination the paper proves undecidable.
        assert!(is_piecewise_linear(&red.program));
        let wardedness = check_wardedness(&red.program);
        assert!(!wardedness.is_warded());
        println!(
            "Σ: {} TGDs, piece-wise linear, NOT warded (violating rules: {:?})",
            red.program.len(),
            wardedness.violating_tgds()
        );

        // Ground truth from the bounded solver.
        let tiling = has_tiling_within(&system, 4, 4);
        println!(
            "bounded solver (≤4×4): tiling exists = {}",
            tiling.is_some()
        );
        if let Some(t) = &tiling {
            for row in &t.rows {
                println!("   {}", row.join(" "));
            }
        }

        // A bounded chase can only *confirm* solvable systems; it can never
        // refute unsolvable ones — that asymmetry is the undecidability.
        let chase = ChaseEngine::new(
            red.program.clone(),
            ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4)),
        );
        let result = chase.run(&red.database);
        println!(
            "bounded chase: {} atoms materialised, query answered = {}\n",
            result.instance.len(),
            result.boolean_answer(&red.query)
        );
        assert_eq!(tiling.is_some(), result.boolean_answer(&red.query));
    }
}
