//! Validates every row of the regenerated Table 1 against the
//! explicit-state oracle: the roster's expected verdicts, the
//! unfolding checker's verdicts and the enumerated truth must all
//! coincide, and each prefix must be complete.

use bench_harness::models;
use petri::ExploreLimits;
use stg_coding_conflicts::csc_core::Checker;
use stg_coding_conflicts::stg::StateGraph;
use stg_coding_conflicts::unfolding::{Prefix, UnfoldOptions};

#[test]
fn roster_verdicts_match_the_oracle() {
    for model in models() {
        let limits = ExploreLimits {
            max_states: 2_000_000,
            token_bound: 1,
        };
        let sg =
            StateGraph::build(&model.stg, limits).unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let truth = sg.satisfies_csc(&model.stg);
        assert_eq!(
            truth, model.expect_csc,
            "{}: roster expectation",
            model.name
        );
        let checker = Checker::new(&model.stg).unwrap();
        assert_eq!(
            checker.check_csc().unwrap().is_satisfied(),
            truth,
            "{}: unfolding checker",
            model.name
        );
    }
}

#[test]
fn roster_models_are_consistent_and_safe() {
    for model in models() {
        let limits = ExploreLimits {
            max_states: 2_000_000,
            token_bound: 1,
        };
        let sg = StateGraph::build(&model.stg, limits).unwrap();
        for s in sg.states() {
            assert!(sg.marking(s).is_safe(), "{}", model.name);
        }
        let checker = Checker::new(&model.stg).unwrap();
        assert!(
            checker.check_consistency().unwrap().is_consistent(),
            "{}",
            model.name
        );
    }
}

#[test]
fn roster_prefixes_represent_all_markings() {
    use std::collections::HashSet;
    for model in models() {
        // Compare represented marking count against explicit count on
        // the rows small enough to enumerate configurations.
        let prefix = Prefix::of_stg(&model.stg, UnfoldOptions::default()).unwrap();
        let Some(configs) =
            stg_coding_conflicts::unfolding::completeness::cutoff_free_configurations(
                &prefix, 300_000,
            )
        else {
            continue; // too many configurations to enumerate; skip
        };
        let represented: HashSet<_> = configs.iter().map(|c| prefix.marking_of(c)).collect();
        let sg = StateGraph::build(&model.stg, ExploreLimits::default()).unwrap();
        assert_eq!(represented.len(), sg.num_states(), "{}", model.name);
    }
}

#[test]
fn roster_prefix_sizes_match_table1() {
    // (|B|, |E|, |E_cut|) under the default ERV order, as in
    // `table1.json`.
    let expected = [
        ("LAZYRING", (17, 16, 1)),
        ("RING", (69, 43, 1)),
        ("DUP-4PH-A", (13, 10, 1)),
        ("DUP-4PH-B", (25, 18, 1)),
        ("DUP-4PH-MTR-A", (35, 24, 1)),
        ("DUP-4PH-MTR-B", (45, 30, 1)),
        ("DUP-MOD-A", (13, 12, 1)),
        ("DUP-MOD-B", (21, 20, 1)),
        ("DUP-MOD-C", (29, 28, 1)),
        ("CF-SYM-A-CSC", (18, 14, 1)),
        ("CF-SYM-B-CSC", (27, 20, 1)),
        ("CF-SYM-C-CSC", (26, 22, 1)),
        ("CF-SYM-D-CSC", (28, 18, 1)),
        ("CF-ASYM-A-CSC", (27, 20, 1)),
        ("CF-ASYM-B-CSC", (40, 30, 1)),
    ];
    let roster = models();
    assert_eq!(roster.len(), expected.len());
    for (model, (name, sizes)) in roster.iter().zip(expected) {
        assert_eq!(model.name, name);
        let prefix = Prefix::of_stg(&model.stg, UnfoldOptions::default()).unwrap();
        assert_eq!(
            (
                prefix.num_conditions(),
                prefix.num_events(),
                prefix.num_cutoffs()
            ),
            sizes,
            "{name}"
        );
    }
}
