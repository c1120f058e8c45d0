//! The fault-injection campaign over the CI-sized grid of positive
//! Table-1 cells ([`chaos_cells`]: n = 4, horizon 600, every
//! protocol and detector family), every standard plan, seeds 1, 2 and 5.
//! In-model plans must leave every cell clean (zero false alarms), and
//! every kind of out-of-model mutant must be detected somewhere.

use ktudc_core::chaos::{chaos_cells, run_chaos_campaign, standard_plans};

#[test]
fn the_ci_grid_campaign_is_clean_and_kills_every_mutant() {
    let cells = chaos_cells();
    let report = run_chaos_campaign(&cells, &standard_plans(cells[0].1.n), &[1, 2, 5]);
    assert!(
        report.zero_false_alarms(),
        "in-model plans raised alarms: {:#?}",
        report.offending_rows()
    );
    assert!(
        report.all_mutants_killed(),
        "some plan kind was never detected:\n{report}"
    );
}
